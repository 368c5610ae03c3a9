module Simclock = Cedar_util.Simclock

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
  | Home_write_burst of { third : int; pages : int; leaders : int }
  | Reclaim_stall of { third : int; pinned : int }
  | Mutation of { seq : int }
  | Op_submitted of { client : int; opseq : int }
  | Op_done of op_record

type entry = { seq : int; span : int; at_us : int; event : event }

type t = {
  mutable on : bool;
  mutable buf : entry array;  (* length 0 until first [enable] *)
  mutable head : int;  (* index of the oldest entry *)
  mutable len : int;
  mutable next_seq : int;
  mutable dropped : int;
  (* Open spans, innermost first: (span id, op, start time). *)
  mutable spans : (int * string * int) list;
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

let current_span t = match t.spans with [] -> 0 | (id, _, _) :: _ -> id

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
    t.spans <- (id, op, at) :: t.spans;
    id
  end

let end_span t ~at id =
  if t.on && id <> 0 then begin
    (* Drop any inner spans abandoned by exception unwinding. *)
    let rec unwind = function
      | (id', op, t0) :: rest when id' = id ->
        t.spans <- rest;
        ignore (emit_in t ~span:id ~at (Op_end { op; us = at - t0 }) : int)
      | _ :: rest -> unwind rest
      | [] -> ()
    in
    unwind t.spans
  end

let span t clock ~op ~name f =
  if not t.on then f ()
  else begin
    let id = begin_span t ~at:(Simclock.now clock) ~op ~name in
    match f () with
    | v ->
      end_span t ~at:(Simclock.now clock) id;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_span t ~at:(Simclock.now clock) id;
      Printexc.raise_with_backtrace e bt
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
  | Home_write_burst { third; pages; leaders } ->
    Format.fprintf ppf "home-write-burst third=%d pages=%d leaders=%d" third
      pages leaders
  | Reclaim_stall { third; pinned } ->
    Format.fprintf ppf "reclaim-stall third=%d pinned=%d" third pinned
  | Mutation { seq } -> Format.fprintf ppf "mutation seq=%d" seq
  | Op_submitted { client; opseq } ->
    Format.fprintf ppf "op-submitted client=%d opseq=%d" client opseq
  | Op_done r ->
    Format.fprintf ppf
      "op-done client=%d opseq=%d op=%s arrived=%d queue=%d execute=%d \
       (seek=%d transfer=%d) append=%d parked=%d"
      r.client r.opseq r.op r.arrived_us r.queue_us r.execute_us r.seek_us
      r.transfer_us r.append_us r.parked_us

let pp_entry ppf e =
  Format.fprintf ppf "#%d span=%d t=%.3fms %a" e.seq e.span
    (float_of_int e.at_us /. 1000.)
    pp_event e.event
