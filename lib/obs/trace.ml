type op_record = {
  client : int;
  opseq : int;
  op : string;
  arrived_us : int;
  end_us : int;
  queue_us : int;
  admission_us : int;
  execute_us : int;
  seek_us : int;
  transfer_us : int;
  append_us : int;
  parked_us : int;
  retries : int;
  dropped : bool;
}

type event =
  | Dev_read of { dev : int; sector : int; count : int; us : int }
  | Dev_write of { dev : int; sector : int; count : int; us : int }
  | Dev_seek of { dev : int; cylinders : int; us : int }
  | Log_append of {
      record_no : int64;
      units : int;
      data_sectors : int;
      total_sectors : int;
      third : int;
    }
  | Log_force of { units : int; empty : bool }
  | Fnt_write_twice of { page : int }
  | Leader_piggyback of { sector : int }
  | Vam_rebuild of { source : string; us : int }
  | Scrub_repair of { target : string; loc : int }
  | Scavenge_phase of { phase : string; us : int }
  | Recovery_phase of { phase : string; us : int }
  | Op_begin of { op : string; name : string }
  | Op_end of { op : string; us : int }
  | Blackbox_checkpoint of { gen : int64; events : int; sectors : int }
  | Home_write_burst of { third : int; pages : int; leaders : int }
  | Reclaim_stall of { third : int; pinned : int }
  | Mutation of { seq : int }
  | Op_submitted of { client : int; opseq : int }
  | Op_rejected of { client : int; opseq : int }
  | Op_done of op_record

type entry = { seq : int; span : int; at_us : int; event : event }

type t = {
  mutable on : bool;
  mutable buf : entry array;  (* length 0 until first [enable] *)
  mutable head : int;  (* index of the oldest entry *)
  mutable len : int;
  mutable next_seq : int;
  mutable dropped : int;
  (* Open spans, innermost first: (span id, op, name, start time). *)
  mutable spans : (int * string * string * int) list;
}

let create () =
  { on = false; buf = [||]; head = 0; len = 0; next_seq = 1; dropped = 0; spans = [] }

let enabled t = t.on
let default_capacity = 65536

let enable ?(capacity = default_capacity) t =
  if capacity <= 0 then invalid_arg "Trace.enable";
  if Array.length t.buf = 0 then begin
    (* Placeholder entry; overwritten before it is ever readable. *)
    let dummy = { seq = 0; span = 0; at_us = 0; event = Log_force { units = 0; empty = true } } in
    t.buf <- Array.make capacity dummy
  end;
  t.on <- true

let disable t = t.on <- false

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.spans <- []

let push t e =
  let cap = Array.length t.buf in
  if t.len < cap then begin
    t.buf.((t.head + t.len) mod cap) <- e;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- e;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end

let current_span t = match t.spans with [] -> 0 | (id, _, _, _) :: _ -> id
let open_spans t = t.spans

let emit_in t ~span ~at event =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { seq; span; at_us = at; event };
  seq

let emit t ~at event =
  if t.on then ignore (emit_in t ~span:(current_span t) ~at event : int)

let emit_span t ~span ~at event =
  if t.on then ignore (emit_in t ~span ~at event : int)

let begin_span t ~at ~op ~name =
  if not t.on then 0
  else begin
    let id = emit_in t ~span:(current_span t) ~at (Op_begin { op; name }) in
    t.spans <- (id, op, name, at) :: t.spans;
    id
  end

let end_span t ~at id =
  if t.on && id <> 0 then begin
    (* Drop any inner spans abandoned by exception unwinding. *)
    let rec unwind = function
      | (id', op, _, t0) :: rest when id' = id ->
        t.spans <- rest;
        ignore (emit_in t ~span:id ~at (Op_end { op; us = at - t0 }) : int)
      | _ :: rest -> unwind rest
      | [] -> ()
    in
    unwind t.spans
  end

let length t = t.len
let dropped t = t.dropped

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod cap)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let last t n =
  let cap = Array.length t.buf in
  let k = if n < t.len then n else t.len in
  let acc = ref [] in
  for i = t.len - 1 downto t.len - k do
    acc := t.buf.((t.head + i) mod cap) :: !acc
  done;
  !acc

(* Binary codec for black-box checkpoints. One byte of tag per event;
   times as i64 (scavenges and long runs exceed 32 bits of microseconds).
   Tags 14, 20 and 21 belonged to retired events and are never reused. *)

module W = Cedar_util.Bytebuf.Writer
module R = Cedar_util.Bytebuf.Reader

let encode_event w = function
  | Dev_read { dev; sector; count; us } ->
    W.u8 w 0;
    W.u8 w dev;
    W.u32 w sector;
    W.u32 w count;
    W.i64 w us
  | Dev_write { dev; sector; count; us } ->
    W.u8 w 1;
    W.u8 w dev;
    W.u32 w sector;
    W.u32 w count;
    W.i64 w us
  | Dev_seek { dev; cylinders; us } ->
    W.u8 w 2;
    W.u8 w dev;
    W.u32 w cylinders;
    W.i64 w us
  | Log_append { record_no; units; data_sectors; total_sectors; third } ->
    W.u8 w 3;
    W.u64 w record_no;
    W.u16 w units;
    W.u16 w data_sectors;
    W.u16 w total_sectors;
    W.u8 w third
  | Log_force { units; empty } ->
    W.u8 w 4;
    W.u16 w units;
    W.bool w empty
  | Fnt_write_twice { page } ->
    W.u8 w 5;
    W.u32 w page
  | Leader_piggyback { sector } ->
    W.u8 w 6;
    W.u32 w sector
  | Vam_rebuild { source; us } ->
    W.u8 w 7;
    W.string w source;
    W.i64 w us
  | Scrub_repair { target; loc } ->
    W.u8 w 8;
    W.string w target;
    W.u32 w loc
  | Scavenge_phase { phase; us } ->
    W.u8 w 9;
    W.string w phase;
    W.i64 w us
  | Recovery_phase { phase; us } ->
    W.u8 w 10;
    W.string w phase;
    W.i64 w us
  | Op_begin { op; name } ->
    W.u8 w 11;
    W.string w op;
    W.string w name
  | Op_end { op; us } ->
    W.u8 w 12;
    W.string w op;
    W.i64 w us
  | Blackbox_checkpoint { gen; events; sectors } ->
    W.u8 w 13;
    W.u64 w gen;
    W.u16 w events;
    W.u16 w sectors
  | Home_write_burst { third; pages; leaders } ->
    W.u8 w 15;
    W.u8 w third;
    W.u16 w pages;
    W.u16 w leaders
  | Reclaim_stall { third; pinned } ->
    W.u8 w 16;
    W.u8 w third;
    W.u16 w pinned
  | Mutation { seq } ->
    W.u8 w 17;
    W.i64 w seq
  | Op_submitted { client; opseq } ->
    W.u8 w 18;
    W.u16 w client;
    W.u32 w opseq
  | Op_rejected { client; opseq } ->
    W.u8 w 19;
    W.u16 w client;
    W.u32 w opseq
  | Op_done r ->
    W.u8 w 22;
    W.u16 w r.client;
    W.u32 w r.opseq;
    W.string w r.op;
    List.iter (W.i64 w)
      [
        r.arrived_us; r.end_us; r.queue_us; r.admission_us; r.execute_us;
        r.seek_us; r.transfer_us; r.append_us; r.parked_us;
      ];
    W.u8 w r.retries;
    W.bool w r.dropped

let decode_event r =
  match R.u8 r with
  | 0 ->
    let dev = R.u8 r in
    let sector = R.u32 r in
    let count = R.u32 r in
    let us = R.i64 r in
    Dev_read { dev; sector; count; us }
  | 1 ->
    let dev = R.u8 r in
    let sector = R.u32 r in
    let count = R.u32 r in
    let us = R.i64 r in
    Dev_write { dev; sector; count; us }
  | 2 ->
    let dev = R.u8 r in
    let cylinders = R.u32 r in
    let us = R.i64 r in
    Dev_seek { dev; cylinders; us }
  | 3 ->
    let record_no = R.u64 r in
    let units = R.u16 r in
    let data_sectors = R.u16 r in
    let total_sectors = R.u16 r in
    let third = R.u8 r in
    Log_append { record_no; units; data_sectors; total_sectors; third }
  | 4 ->
    let units = R.u16 r in
    let empty = R.bool r in
    Log_force { units; empty }
  | 5 -> Fnt_write_twice { page = R.u32 r }
  | 6 -> Leader_piggyback { sector = R.u32 r }
  | 7 ->
    let source = R.string r in
    let us = R.i64 r in
    Vam_rebuild { source; us }
  | 8 ->
    let target = R.string r in
    let loc = R.u32 r in
    Scrub_repair { target; loc }
  | 9 ->
    let phase = R.string r in
    let us = R.i64 r in
    Scavenge_phase { phase; us }
  | 10 ->
    let phase = R.string r in
    let us = R.i64 r in
    Recovery_phase { phase; us }
  | 11 ->
    let op = R.string r in
    let name = R.string r in
    Op_begin { op; name }
  | 12 ->
    let op = R.string r in
    let us = R.i64 r in
    Op_end { op; us }
  | 13 ->
    let gen = R.u64 r in
    let events = R.u16 r in
    let sectors = R.u16 r in
    Blackbox_checkpoint { gen; events; sectors }
  | 15 ->
    let third = R.u8 r in
    let pages = R.u16 r in
    let leaders = R.u16 r in
    Home_write_burst { third; pages; leaders }
  | 16 ->
    let third = R.u8 r in
    let pinned = R.u16 r in
    Reclaim_stall { third; pinned }
  | 17 -> Mutation { seq = R.i64 r }
  | 18 ->
    let client = R.u16 r in
    let opseq = R.u32 r in
    Op_submitted { client; opseq }
  | 19 ->
    let client = R.u16 r in
    let opseq = R.u32 r in
    Op_rejected { client; opseq }
  | 22 ->
    let client = R.u16 r in
    let opseq = R.u32 r in
    let op = R.string r in
    let arrived_us = R.i64 r in
    let end_us = R.i64 r in
    let queue_us = R.i64 r in
    let admission_us = R.i64 r in
    let execute_us = R.i64 r in
    let seek_us = R.i64 r in
    let transfer_us = R.i64 r in
    let append_us = R.i64 r in
    let parked_us = R.i64 r in
    let retries = R.u8 r in
    let dropped = R.bool r in
    Op_done
      {
        client;
        opseq;
        op;
        arrived_us;
        end_us;
        queue_us;
        admission_us;
        execute_us;
        seek_us;
        transfer_us;
        append_us;
        parked_us;
        retries;
        dropped;
      }
  | n ->
    raise (Cedar_util.Bytebuf.Decode_error (Printf.sprintf "trace event tag %d" n))

let encode_entry w e =
  W.i64 w e.seq;
  W.i64 w e.span;
  W.i64 w e.at_us;
  encode_event w e.event

let decode_entry r =
  let seq = R.i64 r in
  let span = R.i64 r in
  let at_us = R.i64 r in
  { seq; span; at_us; event = decode_event r }

let pp_event ppf = function
  | Dev_read { dev; sector; count; us } ->
    Format.fprintf ppf "dev-read dev=%d sector=%d count=%d us=%d" dev sector
      count us
  | Dev_write { dev; sector; count; us } ->
    Format.fprintf ppf "dev-write dev=%d sector=%d count=%d us=%d" dev sector
      count us
  | Dev_seek { dev; cylinders; us } ->
    Format.fprintf ppf "dev-seek dev=%d cylinders=%d us=%d" dev cylinders us
  | Log_append { record_no; units; data_sectors; total_sectors; third } ->
    Format.fprintf ppf
      "log-append record=%Ld units=%d data-sectors=%d total-sectors=%d third=%d"
      record_no units data_sectors total_sectors third
  | Log_force { units; empty } ->
    Format.fprintf ppf "log-force units=%d%s" units (if empty then " (empty)" else "")
  | Fnt_write_twice { page } -> Format.fprintf ppf "fnt-write-twice page=%d" page
  | Leader_piggyback { sector } ->
    Format.fprintf ppf "leader-piggyback sector=%d" sector
  | Vam_rebuild { source; us } ->
    Format.fprintf ppf "vam-rebuild source=%s us=%d" source us
  | Scrub_repair { target; loc } ->
    Format.fprintf ppf "scrub-repair target=%s loc=%d" target loc
  | Scavenge_phase { phase; us } ->
    Format.fprintf ppf "scavenge-phase %s us=%d" phase us
  | Recovery_phase { phase; us } ->
    Format.fprintf ppf "recovery-phase %s us=%d" phase us
  | Op_begin { op; name } -> Format.fprintf ppf "op-begin %s %S" op name
  | Op_end { op; us } -> Format.fprintf ppf "op-end %s us=%d" op us
  | Blackbox_checkpoint { gen; events; sectors } ->
    Format.fprintf ppf "blackbox-checkpoint gen=%Ld events=%d sectors=%d" gen
      events sectors
  | Home_write_burst { third; pages; leaders } ->
    Format.fprintf ppf "home-write-burst third=%d pages=%d leaders=%d" third
      pages leaders
  | Reclaim_stall { third; pinned } ->
    Format.fprintf ppf "reclaim-stall third=%d pinned=%d" third pinned
  | Mutation { seq } -> Format.fprintf ppf "mutation seq=%d" seq
  | Op_submitted { client; opseq } ->
    Format.fprintf ppf "op-submitted client=%d opseq=%d" client opseq
  | Op_rejected { client; opseq } ->
    Format.fprintf ppf "op-rejected client=%d opseq=%d" client opseq
  | Op_done r ->
    Format.fprintf ppf
      "op-done client=%d opseq=%d op=%s arrived=%d queue=%d admission=%d \
       execute=%d (seek=%d transfer=%d) append=%d parked=%d retries=%d%s"
      r.client r.opseq r.op r.arrived_us r.queue_us r.admission_us r.execute_us
      r.seek_us r.transfer_us r.append_us r.parked_us r.retries
      (if r.dropped then " (dropped)" else "")

let pp_entry ppf e =
  Format.fprintf ppf "#%d span=%d t=%.3fms %a" e.seq e.span
    (float_of_int e.at_us /. 1000.)
    pp_event e.event
