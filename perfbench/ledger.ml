(* The host-time ledger of a traced run: the benchmark times calls into
   each layer's public functions itself, on inputs shaped by the
   workload it just served.

   - fsd: the served op stream, in the order the server executed it,
     replayed straight into [Fsd] calls on fresh volumes, each volume
     forced as often as the served run forced it. Every call runs inside
     a harness span, so the per-kind host times and the force share come
     from the span table.
   - device: the served device command stream replayed into a fresh,
     identically configured device.
   - fnt/vam/log/obs seams: B-tree insert/find over the final name set,
     the allocation map's shadow commit and free-run search on the
     workload's layout and end-of-run fill, the name-table fold behind
     the VAM rebuild, log recovery on a copy of a crashed device, the
     entry codec, per-sector CRC, [Stats.add]/[percentile] and
     [Trace.emit] with tracing on and off. *)

open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module V = Cedar_volumes.Volume_set
module Entry = Cedar_fsbase.Entry
module Stats = Cedar_util.Stats
module Trace = Cedar_obs.Trace

(* ------------------------------------------------------------------ *)
(* FSD replay.                                                         *)

type replay = {
  total_s : float;  (** host seconds in FSD calls, forces included *)
  force_s : float;
  forces : int;
  errors : int;
}

let exec_fsd vset (op : C.op) =
  let on name = V.vol vset (V.route vset name) in
  match op with
  | C.Create { name; bytes; fill } ->
    ignore (Fsd.create (on name) ~name (C.content ~fill bytes) : Cedar_fsbase.Fs_ops.info)
  | C.Open name -> ignore (Fsd.open_stat (on name) ~name : Cedar_fsbase.Fs_ops.info)
  | C.Read name -> ignore (Fsd.read_all (on name) ~name : bytes)
  | C.Read_page { name; page } -> ignore (Fsd.read_page (on name) ~name ~page : bytes)
  | C.Delete name -> Fsd.delete (on name) ~name
  | C.List prefix -> ignore (Fsd.list (on prefix) ~prefix : Cedar_fsbase.Fs_ops.info list)
  | C.Force -> ()

let op_volume vset (op : C.op) =
  match op with
  | C.Create { name; _ } | C.Open name | C.Read name | C.Delete name | C.List name -> V.route vset name
  | C.Read_page { name; _ } -> V.route vset name
  | C.Force -> 0

(* Each op runs inside [Fsd.submit], which holds back the interval
   commit demon. Volume [v] is then forced exactly [forces.(v)] times —
   the served run's non-empty forces — spread evenly over its mutations;
   explicit client forces are among those, so they are not replayed
   separately. *)
let replay vset exec ~forces =
  let vols = V.count vset in
  let muts = Array.make vols 0 in
  List.iter (fun op -> if C.mutates op then muts.(op_volume vset op) <- muts.(op_volume vset op) + 1) exec;
  let seen = Array.make vols 0 and done_ = Array.make vols 0 in
  let errors = ref 0 and force_s = ref 0. in
  let force v =
    done_.(v) <- done_.(v) + 1;
    let fs = V.vol vset v in
    let (), s = Host.time (fun () -> Host.span "fsd.force" (fun () -> Fsd.force fs)) in
    force_s := !force_s +. s
  in
  let (), total_s =
    Host.time (fun () ->
        List.iter
          (fun op ->
            if op <> C.Force then begin
              let v = op_volume vset op in
              (match
                 Host.span ("fsd." ^ C.op_kind op) (fun () ->
                     Fsd.submit (V.vol vset v) (fun () -> exec_fsd vset op))
               with
              | (), _ -> ()
              | exception Cedar_fsbase.Fs_error.Fs_error _ -> incr errors);
              if C.mutates op then begin
                seen.(v) <- seen.(v) + 1;
                (* Bresenham spacing: force number k lands after mutation
                   ceil (k * muts / forces). *)
                while done_.(v) < forces.(v) && seen.(v) * forces.(v) >= (done_.(v) + 1) * muts.(v) do
                  force v
                done
              end
            end)
          exec;
        Array.iteri (fun v n -> for _ = done_.(v) + 1 to n do force v done) forces)
  in
  { total_s; force_s = !force_s; forces = Array.fold_left ( + ) 0 done_; errors = !errors }

(* ------------------------------------------------------------------ *)
(* Device command replay.                                              *)

let device_replay geom params cmds =
  let clock = Cedar_util.Simclock.create () in
  let dev = Device.create ~clock geom in
  if params.Params.disk_qdepth >= 2 then
    Device.set_queue dev ~policy:params.Params.disk_sched ~depth:params.Params.disk_qdepth;
  let bufs = Hashtbl.create 16 in
  let buf count =
    match Hashtbl.find_opt bufs count with
    | Some b -> b
    | None ->
      let b = Bytes.make (count * geom.Geometry.sector_bytes) '\x5a' in
      Hashtbl.replace bufs count b;
      b
  in
  List.iter (fun (w, _, count) -> if w then ignore (buf count : bytes)) cmds;
  let n = List.length cmds in
  let (), s =
    Host.time (fun () ->
        Host.span "device.cmds" (fun () ->
            List.iter
              (fun (w, sector, count) ->
                if w then Device.write_run dev ~sector (buf count)
                else ignore (Device.read_run dev ~sector ~count : bytes))
              cmds;
            ignore (Device.busy_until dev : int)))
  in
  if n = 0 then 0. else s *. 1e6 /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Seams.                                                              *)

(* In-memory B-tree store with the name table's page size. *)
module Mem_store = struct
  type t = {
    page_bytes : int;
    pages : (int, bytes) Hashtbl.t;
    mutable next : int;
    mutable root : int option;
  }

  let page_bytes t = t.page_bytes
  let read t id = Hashtbl.find t.pages id
  let write t id b = Hashtbl.replace t.pages id b
  let alloc t =
    t.next <- t.next + 1;
    t.next
  let free t id = Hashtbl.remove t.pages id
  let get_root t = t.root
  let set_root t r = t.root <- r
end

module Mem_btree = Cedar_btree.Btree.Make (Mem_store)

type entries = (string * Entry.t) array  (** B-tree key, entry *)

let final_entries vset : entries =
  let acc = ref [] in
  V.iter
    (fun _ fs ->
      acc :=
        Fsd.fold_entries fs ~init:!acc ~f:(fun acc ~name ~version e ->
            (Cedar_fsbase.Fname.key ~name ~version, e) :: acc))
    vset;
  Array.of_list (List.rev !acc)

(* Enough passes over a set of [n] inputs to make ~[target] calls. *)
let passes ~target n = max 1 (target / max 1 n)

let btree_seams (layout : Layout.t) (entries : entries) =
  let page_bytes =
    (layout.Layout.params.Params.fnt_page_sectors * layout.Layout.geom.Geometry.sector_bytes) - 16
  in
  let values = Array.map (fun (_, e) -> Entry.encode e) entries in
  let n = Array.length entries in
  let reps = passes ~target:20_000 n in
  let fresh () =
    Mem_btree.attach { Mem_store.page_bytes; pages = Hashtbl.create 256; next = 0; root = None }
  in
  let tree = ref (fresh ()) in
  let i = ref 0 in
  let insert_ns, insert_words =
    Host.per_call ~iters:(reps * n) (fun () ->
        if !i = n then begin
          i := 0;
          tree := fresh ()
        end;
        Mem_btree.insert !tree ~key:(fst entries.(!i)) ~value:values.(!i);
        incr i)
  in
  let i = ref 0 in
  let find_ns, find_words =
    Host.per_call ~iters:(reps * n) (fun () ->
        ignore (Mem_btree.find !tree (fst entries.(!i mod n)) : string option);
        incr i)
  in
  (insert_ns, insert_words, find_ns, find_words)

let codec_seam (entries : entries) =
  let n = Array.length entries in
  let i = ref 0 in
  Host.per_call ~iters:(passes ~target:50_000 n * n) (fun () ->
      ignore (Entry.decode (Entry.encode (snd entries.(!i mod n))) : Entry.t);
      incr i)

(* The allocation map as the run left it: every sector the name table
   claims is allocated. *)
let end_of_run_vam layout (entries : entries) =
  let vam = Vam.create_all_free layout in
  Array.iter
    (fun (_, (e : Entry.t)) ->
      if e.Entry.anchor >= 0 then begin
        Vam.mark_allocated_for_rebuild vam e.Entry.anchor;
        Cedar_fsbase.Run_table.iter_sectors e.Entry.runs (Vam.mark_allocated_for_rebuild vam)
      end)
    entries;
  vam

let vam_seams (layout : Layout.t) (entries : entries) =
  let vam = end_of_run_vam layout entries in
  let lo = layout.Layout.small_lo and hi = layout.Layout.small_hi in
  (* A typical small create: leader plus a few data sectors. *)
  let len = 8 in
  let pos = Option.value (Vam.find_free_run vam ~from:lo ~upto:hi ~len) ~default:lo in
  let commit_ns, _ =
    Host.per_call ~iters:100 (fun () ->
        Vam.allocate_run vam ~pos ~len;
        Vam.shadow_release_run vam ~pos ~len;
        Vam.commit_shadow vam)
  in
  let k = ref 0 in
  let find_ns, _ =
    Host.per_call ~iters:2_000 (fun () ->
        let from = lo + (!k * 97 mod max 1 (hi - lo)) in
        incr k;
        ignore (Vam.find_free_run vam ~from ~upto:hi ~len : int option))
  in
  (commit_ns /. 1e3, find_ns /. 1e3)

let crc_seam (sample : bytes) =
  let sector = Bytes.sub sample 0 (min 512 (Bytes.length sample)) in
  Host.per_call ~iters:100_000 (fun () -> ignore (Cedar_util.Crc32.bytes sector : int))

(* [Stats.add] then a p99 at the run's largest distribution size: the
   add invalidates the sorted cache, so every percentile re-sorts. *)
let stats_seam ~largest =
  let d = Stats.create () in
  for i = 1 to max 1 largest do
    Stats.add d (float_of_int ((i * 7919) mod 100_003))
  done;
  let add_ns, add_words = Host.per_call ~iters:100_000 (fun () -> Stats.add d 42.) in
  let iters = max 5 (min 100 (250_000 / max 1 largest)) in
  let pct_ns, _ =
    Host.per_call ~iters (fun () ->
        Stats.add d 17.;
        ignore (Stats.percentile d 0.99 : float))
  in
  (add_ns, add_words, pct_ns /. 1e3)

let trace_seam ~on =
  let tr = Trace.create () in
  if on then Trace.enable ~capacity:65_536 tr;
  let at = ref 0 in
  Host.per_call ~iters:(if on then 500_000 else 2_000_000) (fun () ->
      incr at;
      Trace.emit tr ~at:!at (Trace.Dev_write { dev = 0; sector = !at land 0xffff; count = 2; us = 250 }))

let fold_seam vset =
  let (), s =
    Host.time (fun () ->
        V.iter
          (fun _ fs ->
            Host.span "fnt.fold" (fun () ->
                ignore (Fsd.fold_entries fs ~init:0 ~f:(fun n ~name:_ ~version:_ _ -> n + 1) : int)))
          vset)
  in
  s *. 1e3

(* Log recovery on a copy of a device, made through the disk-image
   codec so the original's clock and arm are untouched. *)
let recover_seam device layout =
  let copy = Workloads.copy_device device in
  let r, s = Host.time (fun () -> Host.span "log.recover" (fun () -> Log.recover copy layout)) in
  (r.Log.replayed_records, s *. 1e3)
