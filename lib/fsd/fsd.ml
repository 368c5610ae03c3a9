open Cedar_util
open Cedar_disk
open Cedar_fsbase

module B = Cedar_btree.Btree.Make (Fnt_store)
module Nt = Name_table.Make (B)
module Trace = Cedar_obs.Trace
module Metrics = Cedar_obs.Metrics
module Monitor = Cedar_obs.Monitor

type vam_source = Vam_loaded | Vam_reconstructed | Vam_replayed

type boot_report = {
  boot_count : int;
  replayed_records : int;
  replayed_pages : int;
  corrected_sectors : int;
  skipped_leaders : int;
  vam_source : vam_source;
  log_replay_us : int;
  vam_us : int;
  total_us : int;
}

(* Registry-backed counter handles; registered (fresh, zeroed) on every
   boot under "fsd.*" names, so every count restarts at each boot. *)
type meters = {
  m_ops : Metrics.counter;
  m_forces : Metrics.counter;
  m_empty_forces : Metrics.counter;
  m_leader_piggybacks : Metrics.counter;
  m_leader_home_writes : Metrics.counter;
  m_vam_base_rewrites : Metrics.counter;
  m_scrub_passes : Metrics.counter;
  m_scrub_fnt_repairs : Metrics.counter;
  m_scrub_leader_repairs : Metrics.counter;
  m_home_write_bursts : Metrics.counter;
}

(* A leader whose home sector does not hold its current image yet. *)
type pending_leader = { mutable image : bytes; dirty : Dirty.t }

type t = {
  device : Device.t;
  clock : Simclock.t;
  layout : Layout.t;
  params : Params.t;
  store : Fnt_store.t;
  tree : B.t;
  log : Log.t;
  alloc : Alloc.t;
  pending_leaders : (int, pending_leader) Hashtbl.t;
  chunk_thirds : (int, int) Hashtbl.t; (* VAM chunk -> third of its log copy *)
  verified : (int64, unit) Hashtbl.t; (* uids whose leader checked out *)
  mutable last_force : int;
  mutable last_force_io : Device.completion option;
      (* the last force's device requests, for [last_force_window] *)
  mutable live : bool;
  mutable mutation_seq : int;
      (* bumped whenever an operation leaves log-pending metadata *)
  mutable durable_seq : int;
      (* mutation_seq value covered by the last completed force *)
  mutable autocommit : bool;
      (* time-based commit fires inside op_done; a server scheduler
         suppresses it during [submit] and drives commits itself *)
  mutable homed_third : int;
      (* a third the home-write demon found nothing left to home in, or
         -1; only a record landing in it can make it claim work again
         (see [maybe_home_writes]) *)
  mutable last_scrub : int;
  mutable scrub_page_cursor : int; (* next FNT page pair to verify *)
  mutable scrub_key_cursor : string; (* next name-table key whose leader to verify *)
  mutable monitor : Monitor.t option;
      (* telemetry sampler; [None] (the default) keeps the hot path at
         one branch with zero allocation, same discipline as the trace *)
  mutable create_image : bytes;
      (* the leader and data of the file being created; grown on demand
         and reused by every create, since the device copies a write at
         issue *)
  boot_count : int;
  meters : meters;
}

let mk_meters reg =
  {
    m_ops = Metrics.counter reg "fsd.ops";
    m_forces = Metrics.counter reg "fsd.forces";
    m_empty_forces = Metrics.counter reg "fsd.empty_forces";
    m_leader_piggybacks = Metrics.counter reg "fsd.leader_piggybacks";
    m_leader_home_writes = Metrics.counter reg "fsd.leader_home_writes";
    m_vam_base_rewrites = Metrics.counter reg "fsd.vam_base_rewrites";
    m_scrub_passes = Metrics.counter reg "fsd.scrub_passes";
    m_scrub_fnt_repairs = Metrics.counter reg "fsd.scrub_fnt_repairs";
    m_scrub_leader_repairs = Metrics.counter reg "fsd.scrub_leader_repairs";
    m_home_write_bursts = Metrics.counter reg "fsd.home_write_bursts";
  }

let layout t = t.layout
let params t = t.params
let shard t = t.params.Params.shard_id
let device t = t.device
let trace t = Device.trace t.device
let metrics t = Device.metrics t.device

let log_stats t = Log.stats t.log
let fnt_home_writes t = Fnt_store.home_writes t.store
let fnt_repairs t = Fnt_store.repairs t.store
let free_sectors t = Vam.free_count (Alloc.vam t.alloc)
let drop_caches t =
  ignore (Fnt_store.flush_all_dirty t.store : int);
  Fnt_store.drop_clean_cache t.store

let sector_bytes t = t.layout.Layout.geom.Geometry.sector_bytes
let now t = Simclock.now t.clock
let cpu t us = Simclock.advance t.clock us
let require_live t = if not t.live then Fs_error.raise_ Fs_error.Not_booted

let emit t ev =
  let tr = Device.trace t.device in
  if Trace.enabled tr then Trace.emit tr ~at:(now t) ev

let corrupt msg = Fs_error.raise_ (Fs_error.Corrupt_metadata msg)

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

(* The one home-write pass (§5.3): the units whose last log copy lies in
   third [j] go home as the committed image that copy holds, name-table
   pages first and then leaders, each lowest first, at most [budget] in
   all. Leaders too must be written by the logging code before their
   third is overwritten, piggybacked or not. Returns the pages and the
   leaders written. *)
let home_third ?(budget = max_int) t j =
  let pages = Fnt_store.flush_third ~budget t.store j in
  let due =
    Hashtbl.fold
      (fun sector pl acc -> if Dirty.claims pl.dirty j then (sector, pl) :: acc else acc)
      t.pending_leaders []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.filteri (fun i _ -> i < budget - pages)
  in
  List.iter
    (fun (sector, pl) ->
      let image, still_dirty = Dirty.home pl.dirty ~current:pl.image in
      Device.write t.device sector image;
      Metrics.inc t.meters.m_leader_home_writes;
      if not still_dirty then Hashtbl.remove t.pending_leaders sector)
    due;
  (pages, List.length due)

(* With VAM logging, chunk images living in [j] are about to die too:
   rewrite the whole base, stamped with the current record number, so
   recovery ignores every older (stale) chunk image still in the log. *)
let handle_enter_third t j =
  ignore (home_third t j : int * int);
  if t.params.Params.log_vam && Hashtbl.fold (fun _ th acc -> acc || th = j) t.chunk_thirds false
  then begin
    (* The record being appended right now (number [next_record_no]) logs
       chunk states the current map already contains, so it is covered by
       the epoch too. Should that record never land, boot refuses this
       base: replay does not reach its epoch. *)
    Vam.save ~mode:Vam.Log_based ~epoch:(Log.next_record_no t.log) (Alloc.vam t.alloc)
      t.device;
    Hashtbl.reset t.chunk_thirds;
    Metrics.inc t.meters.m_vam_base_rewrites
  end

let max_data_sectors t =
  Int.min t.params.Params.max_record_data_sectors (Log.max_data_sectors_hard t.layout)

(* Note what each logged unit's survival horizon is (the third its
   record starts in) and update the in-memory bookkeeping. This is the
   only way a page or a leader comes to claim a third, so it is also
   where the home-write demon's "nothing left in [third]" is forgotten. *)
let note_logged t batch ~third =
  if third = t.homed_third then t.homed_third <- -1;
  let fnt_ids =
    List.filter_map
      (fun u -> match u.Log.kind with Log.Fnt_page p -> Some p | _ -> None)
      batch
  in
  Fnt_store.mark_logged t.store fnt_ids ~third;
  List.iter
    (fun u ->
      match u.Log.kind with
      | Log.Leader_page s -> (
        match Hashtbl.find_opt t.pending_leaders s with
        | Some pl -> Dirty.logged pl.dirty ~third u.Log.image
        | None -> ())
      | Log.Vam_chunk c -> Hashtbl.replace t.chunk_thirds c third
      | Log.Fnt_page _ -> ())
    batch

let do_force t =
  require_live t;
  (* Everything mutated so far is in the dirty pages and pending leaders
     this force is about to log; once the record is durable, every token
     at or below this sequence is covered. Captured before the append so
     a crash mid-record leaves [durable_seq] untouched. *)
  let covered_seq = t.mutation_seq in
  let pages = Fnt_store.pages_to_log t.store in
  let leaders =
    Hashtbl.fold
      (fun sector pl acc -> if Dirty.modified pl.dirty then (sector, pl) :: acc else acc)
      t.pending_leaders []
  in
  if pages = [] && leaders = [] then begin
    assert (Vam.shadow_count (Alloc.vam t.alloc) = 0);
    Metrics.inc t.meters.m_empty_forces;
    emit t (Trace.Log_force { units = 0; empty = true });
    t.durable_seq <- covered_seq;
    t.last_force <- now t
  end
  else begin
    (* Deletions commit now, so their freed bits ride in this record
       (relevant only with VAM logging; harmless otherwise — a crash
       before the record is durable loses this whole session anyway). *)
    Alloc.commit t.alloc;
    let base_units =
      List.map (Fnt_store.logged_unit t.store) pages
      @ List.map
          (fun (sector, pl) -> { Log.kind = Log.Leader_page sector; image = pl.image })
          leaders
    in
    let vam = Alloc.vam t.alloc in
    let chunk_unit c = { Log.kind = Log.Vam_chunk c; image = Vam.chunk_image vam c } in
    let units =
      if not t.params.Params.log_vam then base_units
      else
        (* Chunks dirtied since the last force ride in the same record as
           the name-table changes they belong to. Chunk images about to
           be overwritten by a third entry are covered differently: the
           entry handler rewrites the whole base with a fresh epoch. *)
        base_units @ List.map chunk_unit (Vam.drain_dirty_chunks vam)
    in
    let cap = max_data_sectors t in
    let total_data =
      List.fold_left (fun acc u -> acc + Log.unit_sectors t.layout u.Log.kind) 0 units
    in
    if total_data <= cap then begin
      (* the normal case: one record, one atomic commit *)
      let third = Log.append t.log units in
      note_logged t units ~third
    end
    else begin
      (* Backstop: split across records. Cross-record atomicity is lost,
         which the VAM base cannot tolerate — degrade it to a rebuild. *)
      if t.params.Params.log_vam then begin
        Vam.invalidate_saved t.layout t.device;
        Hashtbl.reset t.chunk_thirds
      end;
      let flush batch =
        let batch = List.rev batch in
        let third = Log.append t.log batch in
        note_logged t batch ~third
      in
      let rec pack acc acc_sectors = function
        | [] -> if acc <> [] then flush acc
        | u :: rest ->
          let s = Log.unit_sectors t.layout u.Log.kind in
          if acc <> [] && acc_sectors + s > cap then begin
            flush acc;
            pack [ u ] s rest
          end
          else pack (u :: acc) (acc_sectors + s) rest
      in
      pack [] 0 units
    end;
    t.durable_seq <- covered_seq;
    Metrics.inc t.meters.m_forces;
    emit t (Trace.Log_force { units = List.length units; empty = false });
    t.last_force <- now t
  end

(* Every force is a write barrier (a no-op without a request queue): the
   record-size backstop runs inside an op, right behind its data writes. *)
let force t =
  ignore (Device.busy_until t.device : int);
  Trace.span (trace t) t.clock ~op:"force" ~name:"" (fun () ->
      let (), io = Device.track t.device (fun () -> do_force t) in
      t.last_force_io <- Some io);
  ignore (Device.busy_until t.device : int)

let last_force_window t =
  match t.last_force_io with
  | Some io when io.Device.started_at >= 0 ->
    (io.Device.started_at, io.Device.done_at)
  | Some _ | None -> (0, 0)

(* Force early when the pending batch approaches one record, so a single
   force stays a single atomic log write ("the log is forced long before
   this should occur"). *)
let force_threshold t =
  Int.max 2 ((max_data_sectors t / t.params.Params.fnt_page_sectors) - 4)

let commit_due_at t = t.last_force + t.params.Params.commit_interval_us
let bulk_due t = Fnt_store.pages_to_log_count t.store >= force_threshold t

let maybe_commit t =
  (* Under a server scheduler ([autocommit] off, see {!submit}) the
     interval-driven force belongs to the batcher; the bulk trigger stays
     on unconditionally so one force remains one atomic record. *)
  if (t.autocommit && now t >= commit_due_at t) || bulk_due t then force t

(* ------------------------------------------------------------------ *)
(* Name-table access                                                   *)

let decode_entry name v =
  match Entry.decode v with
  | e -> e
  | exception Bytebuf.Decode_error m ->
    corrupt (Printf.sprintf "entry for %s does not decode: %s" name m)

let newest_exn t name =
  let key, version, v = Nt.newest_exn t.tree name in
  (key, version, decode_entry name v)

let info_of name version (e : Entry.t) =
  { Fs_ops.name; version; byte_size = e.Entry.byte_size; uid = e.Entry.uid }

let insert_entry t ~key (e : Entry.t) =
  t.mutation_seq <- t.mutation_seq + 1;
  emit t (Trace.Mutation { seq = t.mutation_seq });
  match B.insert t.tree ~key ~value:(Entry.encode e) with
  | () -> ()
  | exception Invalid_argument _ ->
    (match Fname.parse key with
    | Some (name, _) -> Fs_error.raise_ (Fs_error.Too_fragmented name)
    | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Leader handling                                                     *)

let leader_image_of_entry t ~name ~version (e : Entry.t) =
  File_record.encode Leader.format (Leader.of_entry ~name ~version e)
    ~sector_bytes:(sector_bytes t)

(* After an entry changes in place (a cached file's last-used time) the
   leader must be refreshed (it mirrors the whole entry for the
   scavenger); it is logged at the next commit and home-written lazily
   (never a synchronous I/O). *)
let refresh_leader t ~name ~version (e : Entry.t) =
  let image = leader_image_of_entry t ~name ~version e in
  match Hashtbl.find_opt t.pending_leaders e.Entry.anchor with
  | Some pl ->
    pl.image <- image;
    Dirty.modify pl.dirty
  | None ->
    Hashtbl.add t.pending_leaders e.Entry.anchor { image; dirty = Dirty.create () }

(* The pending image, else the home copy; raises [Device.Error] when
   the home sector cannot be read. *)
let read_leader t (e : Entry.t) =
  match Hashtbl.find_opt t.pending_leaders e.Entry.anchor with
  | Some pl -> File_record.decode Leader.format pl.image
  | None -> File_record.decode Leader.format (Device.read t.device e.Entry.anchor)

let check_leader t name version (e : Entry.t) leader =
  match leader with
  | Some l when Leader.matches l ~name ~version e ->
    Hashtbl.replace t.verified e.Entry.uid ()
  | Some _ | None ->
    corrupt (Printf.sprintf "leader/name-table mismatch for %s (uid %Ld)" name e.Entry.uid)

let leader_verified t (e : Entry.t) = Hashtbl.mem t.verified e.Entry.uid

(* A leader that is unreadable, fails its checksum or no longer
   corroborates the entry is rewritten from the name table: the entry is
   the primary copy, the leader reconstructible redundancy. *)
let repair_leader t ~name ~version (e : Entry.t) =
  Device.write t.device e.Entry.anchor (leader_image_of_entry t ~name ~version e);
  Metrics.inc t.meters.m_scrub_leader_repairs;
  emit t (Trace.Scrub_repair { target = "leader"; loc = e.Entry.anchor });
  Hashtbl.replace t.verified e.Entry.uid ()

(* ------------------------------------------------------------------ *)
(* Data I/O                                                            *)

(* Read [count] pages from page [first], one command per run they
   cross. On the file's first access the leader is verified too:
   combined with the first transfer when page 0 is read and the leader
   is the sector just before it (§5.7), else by a read of its own. A
   leader whose sector cannot be read carries nothing the read needs:
   the data is read without it and the leader rewritten from the entry. *)
let read_pages t name version (e : Entry.t) ~first ~count =
  let sb = sector_bytes t in
  let stop = first + count in
  let piggyback =
    (not (leader_verified t e))
    && (not (Hashtbl.mem t.pending_leaders e.Entry.anchor))
    && first = 0 && count > 0
    && Run_table.sector_of_page e.Entry.runs 0 = e.Entry.anchor + 1
  in
  let leader_lost = ref false in
  (* [page] is the file page the next run starts at; [parts] holds the
     pages read so far, newest first. *)
  let rec read page parts = function
    | r :: runs when page < stop ->
      let lo = max first page and hi = min stop (page + r.Run_table.len) in
      let parts =
        if lo >= hi then parts
        else
          let sector = r.Run_table.start + lo - page and len = hi - lo in
          if piggyback && lo = 0 then begin
            match Device.read_run t.device ~sector:(sector - 1) ~count:(1 + len) with
            | combined ->
              Metrics.inc t.meters.m_leader_piggybacks;
              emit t (Trace.Leader_piggyback { sector = e.Entry.anchor });
              check_leader t name version e
                (File_record.decode Leader.format (Bytes.sub combined 0 sb));
              [ Bytes.sub combined sb (len * sb) ]
            | exception Device.Error { sector = bad; _ } when bad = e.Entry.anchor ->
              leader_lost := true;
              [ Device.read_run t.device ~sector ~count:len ]
          end
          else Device.read_run t.device ~sector ~count:len :: parts
      in
      read (page + r.Run_table.len) parts runs
    | _ -> parts
  in
  let parts =
    try
      if (not piggyback) && not (leader_verified t e) then begin
        match read_leader t e with
        | leader -> check_leader t name version e leader
        | exception Device.Error _ -> leader_lost := true
      end;
      read 0 [] (Run_table.runs e.Entry.runs)
    with Device.Error { sector; _ } ->
      Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  in
  if !leader_lost then repair_leader t ~name ~version e;
  match parts with [ one ] -> one | parts -> Bytes.concat Bytes.empty (List.rev parts)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let op_done t ?(pages = 0) () =
  Metrics.inc t.meters.m_ops;
  cpu t (Params.cpu_op_us + (pages * Params.cpu_page_us));
  maybe_commit t;
  (* Single-threaded callers never reach [run_due_demons]; polling here
     too keeps the sampling cadence without a scheduler. *)
  match t.monitor with None -> () | Some m -> Monitor.maybe_sample m

let split_leader_runs runs =
  match runs with
  | [] -> invalid_arg "split_leader_runs"
  | first :: rest ->
    let leader = first.Run_table.start in
    let data =
      if first.Run_table.len > 1 then
        { Run_table.start = first.Run_table.start + 1; len = first.Run_table.len - 1 }
        :: rest
      else rest
    in
    (leader, data)

let versions t ~name = List.rev_map (fun (v, _, _) -> v) (Nt.versions t.tree ~name)

(* Drop the version stored under [key]; its leader and data sectors
   return to the VAM at the next commit. *)
let delete_version t ~key (e : Entry.t) =
  t.mutation_seq <- t.mutation_seq + 1;
  emit t (Trace.Mutation { seq = t.mutation_seq });
  ignore (B.delete t.tree key : bool);
  Alloc.free_on_commit t.alloc
    ({ Run_table.start = e.Entry.anchor; len = 1 } :: Run_table.runs e.Entry.runs);
  Hashtbl.remove t.pending_leaders e.Entry.anchor;
  Hashtbl.remove t.verified e.Entry.uid

(* After [version] of [name] is inserted, keep only the newest [keep]:
   drop, oldest first, each of the [older] versions (newest first, as
   the version scan found them before the insert) at or below
   [version - keep]. *)
let enforce_keep t ~name ~version ~keep older =
  if keep > 0 then
    List.fold_left
      (fun acc ((v, _, _) as x) -> if v <= version - keep then x :: acc else acc)
      [] older
    |> List.iter (fun (_, key, raw) -> delete_version t ~key (decode_entry name raw))

let create_common t ~name ~keep ~kind data =
  require_live t;
  Name_table.validate_name name;
  let sb = sector_bytes t in
  let byte_size = Bytes.length data in
  let data_pages = max 1 ((byte_size + sb - 1) / sb) in
  let small = byte_size <= Params.small_file_bytes in
  let runs =
    match Alloc.allocate t.alloc ~sectors:(1 + data_pages) ~small with
    | Ok rs -> rs
    | Error `Volume_full -> Fs_error.raise_ Fs_error.Volume_full
    | Error `Too_fragmented -> Fs_error.raise_ (Fs_error.Too_fragmented name)
  in
  let anchor, data_runs = split_leader_runs runs in
  let uid = Fnt_store.fresh_uid t.store in
  (* One range scan gives the create both its version number and the
     versions its keep count prunes. *)
  let older = Nt.versions t.tree ~name in
  let version = match older with (v, _, _) :: _ -> v + 1 | [] -> 1 in
  let entry =
    {
      Entry.uid;
      keep;
      byte_size;
      created = now t;
      runs = Run_table.of_runs data_runs;
      anchor;
      kind;
    }
  in
  (try insert_entry t ~key:(Fname.key ~name ~version) entry
   with e ->
     Alloc.free_now t.alloc runs;
     raise e);
  (* One image, in the volume's create buffer: the leader, then the data
     zero-padded to whole pages. Every write takes its sectors from it,
     a single-run file the whole image at once. *)
  if Bytes.length t.create_image < (1 + data_pages) * sb then
    t.create_image <- Bytes.create ((1 + data_pages) * sb);
  let image = t.create_image in
  Bytes.blit (leader_image_of_entry t ~name ~version entry) 0 image 0 sb;
  Bytes.blit data 0 image sb byte_size;
  Bytes.fill image (sb + byte_size) ((data_pages * sb) - byte_size) '\000';
  let write_at ~sector ~pos ~sectors =
    Device.write_sectors t.device ~sector ~count:sectors ~pos image
  in
  (* One synchronous I/O for the leader and the first data run when
     they are adjacent; on a fragmented volume the leader goes alone. *)
  let lead, rest =
    match Run_table.runs entry.Entry.runs with
    | first :: rest when first.Run_table.start = anchor + 1 ->
      (1 + first.Run_table.len, rest)
    | runs -> (1, runs)
  in
  write_at ~sector:anchor ~pos:0 ~sectors:lead;
  let pos = ref (lead * sb) in
  List.iter
    (fun r ->
      write_at ~sector:r.Run_table.start ~pos:!pos ~sectors:r.Run_table.len;
      pos := !pos + (r.Run_table.len * sb))
    rest;
  Hashtbl.replace t.verified uid ();
  enforce_keep t ~name ~version ~keep older;
  op_done t ~pages:data_pages ();
  info_of name version entry

let create t ~name ?keep data =
  Trace.span (trace t) t.clock ~op:"create" ~name (fun () ->
      let keep = Option.value keep ~default:t.params.Params.default_keep in
      create_common t ~name ~keep ~kind:Entry.Local data)

let import_cached t ~name ~server data =
  Trace.span (trace t) t.clock ~op:"import" ~name (fun () ->
      create_common t ~name ~keep:t.params.Params.default_keep
        ~kind:(Entry.Cached { server; last_used = now t })
        data)

let open_stat t ~name =
  Trace.span (trace t) t.clock ~op:"open" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  op_done t ();
  info_of name version e

let exists t ~name =
  Trace.span (trace t) t.clock ~op:"exists" ~name @@ fun () ->
  require_live t;
  let r = Nt.newest t.tree name <> None in
  op_done t ();
  r

let read_all t ~name =
  Trace.span (trace t) t.clock ~op:"read_all" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  let npages = Run_table.pages e.Entry.runs in
  Option.iter corrupt
    (Run_table.size_mismatch e.Entry.runs ~sector_bytes:(sector_bytes t) ~key:name
       ~byte_size:e.Entry.byte_size);
  let bytes = read_pages t name version e ~first:0 ~count:npages in
  op_done t ~pages:npages ();
  Bytes.sub bytes 0 e.Entry.byte_size

let read_page t ~name ~page =
  Trace.span (trace t) t.clock ~op:"read_page" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  let npages = Run_table.pages e.Entry.runs in
  if page < 0 || page >= npages then Fs_error.raise_ (Fs_error.Bad_page { name; page });
  let result = read_pages t name version e ~first:page ~count:1 in
  op_done t ~pages:1 ();
  result

let update_entry t ~key (e : Entry.t) =
  insert_entry t ~key e;
  match Fname.parse key with
  | Some (name, version) -> refresh_leader t ~name ~version e
  | None -> ()

let delete t ~name =
  Trace.span (trace t) t.clock ~op:"delete" ~name @@ fun () ->
  require_live t;
  let key, _, e = newest_exn t name in
  delete_version t ~key e;
  (* simulated freeing cost scales with the run table, as the paper's
     shadow-bitmap work did *)
  op_done t ~pages:(Run_table.pages e.Entry.runs / 2) ()

let touch_cached t ~name =
  Trace.span (trace t) t.clock ~op:"touch" ~name @@ fun () ->
  require_live t;
  let key, _, e = newest_exn t name in
  (match e.Entry.kind with
  | Entry.Cached { server; _ } ->
    update_entry t ~key
      { e with Entry.kind = Entry.Cached { server; last_used = now t } }
  | Entry.Local -> corrupt (name ^ " is not a cached remote file"));
  op_done t ()

let last_used t ~name =
  Trace.span (trace t) t.clock ~op:"last_used" ~name @@ fun () ->
  require_live t;
  let _, _, e = newest_exn t name in
  op_done t ();
  match e.Entry.kind with
  | Entry.Cached { last_used; _ } -> Some last_used
  | Entry.Local -> None

let list t ~prefix =
  Trace.span (trace t) t.clock ~op:"list" ~name:prefix @@ fun () ->
  require_live t;
  let acc = ref [] and entries = ref 0 in
  Nt.iter_newest t.tree ~prefix
    ~on_key:(fun () -> incr entries)
    (fun n ver v -> acc := info_of n ver (decode_entry n v) :: !acc);
  cpu t (!entries * Params.cpu_page_us);
  op_done t ();
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Online scrub demon

   Latent damage — a decayed sector, a wild write, silent corruption — in
   a doubly-kept structure is only survivable while the twin is still
   good. Waiting for a client read to notice leaves an unbounded window
   in which the second copy can die too. During idle periods the demon
   therefore walks the FNT page pairs and the leaders a few at a time,
   verifies every copy (checksum, not just readability), and rewrites a
   lone bad copy in place from its surviving source. *)

let scrub_fnt_pages t =
  let np = t.params.Params.fnt_pages in
  let budget = min Params.scrub_pages_per_pass np in
  for _ = 1 to budget do
    let page = t.scrub_page_cursor in
    t.scrub_page_cursor <- (page + 1) mod np;
    if Fnt_store.page_in_use t.store page then
      match Fnt_store.scrub_page t.store page with
      | `Repaired ->
        Metrics.inc t.meters.m_scrub_fnt_repairs;
        emit t (Trace.Scrub_repair { target = "fnt-page"; loc = page })
      | `Ok | `Unreadable -> ()
  done

(* A leader that is unreadable, fails its checksum or no longer
   corroborates the entry is repaired ([repair_leader]). Leaders with a
   pending image are skipped: their home copy is legitimately stale
   until the logging code writes it. *)
let scrub_leaders t =
  let budget = Params.scrub_leaders_per_pass in
  let scanned = ref 0 in
  let wrapped = ref true in
  (try
     B.iter_range ~lo:t.scrub_key_cursor t.tree (fun k v ->
         if !scanned >= budget then begin
           t.scrub_key_cursor <- k;
           wrapped := false;
           raise Exit
         end;
         incr scanned;
         match Fname.parse k with
         | None -> ()
         | Some (name, version) ->
           let e = decode_entry name v in
           if not (Hashtbl.mem t.pending_leaders e.Entry.anchor) then begin
             let ok =
               match Device.read t.device e.Entry.anchor with
               | b -> (
                 match File_record.decode Leader.format b with
                 | Some l -> Leader.matches l ~name ~version e
                 | None -> false)
               | exception Device.Error _ -> false
             in
             if ok then Hashtbl.replace t.verified e.Entry.uid ()
             else repair_leader t ~name ~version e
           end)
   with Exit -> ());
  if !wrapped then t.scrub_key_cursor <- ""

let scrub_due_at t = t.last_scrub + Params.scrub_interval_us

let maybe_scrub t =
  if now t >= scrub_due_at t then begin
    t.last_scrub <- now t;
    Metrics.inc t.meters.m_scrub_passes;
    scrub_fnt_pages t;
    scrub_leaders t
  end

let next_third t = (Log.current_third t.log + 1) mod 3

let home_writes_due t =
  Log.third_fill t.log >= Params.home_write_fill && next_third t <> t.homed_third

(* Background home-write scheduling: once the current third is
   [home_write_fill] full, pre-flush pages and leaders whose survival
   horizon is the NEXT third, in bounded batches between group commits —
   so the synchronous reclaim when the writer actually enters that third
   ([handle_enter_third]) finds little left to do inside an op.

   A pass that homes fewer pages plus leaders than its budget has homed
   everything the third holds, so the third is remembered in
   [homed_third] and later passes skip both scans while it is still the
   next one. *)
let maybe_home_writes t =
  let budget = Params.home_writes_per_pass in
  if home_writes_due t then begin
    let next = next_third t in
    let pages, leaders = home_third ~budget t next in
    if pages + leaders > 0 then begin
      Metrics.inc t.meters.m_home_write_bursts;
      emit t (Trace.Home_write_burst { third = next; pages; leaders })
    end;
    if pages + leaders < budget then t.homed_third <- next
  end

(* Demon dispatch, separated from time-advance so that an external
   scheduler (lib/server) can fire the commit, home-write and scrub
   demons at its own pace. [tick] = advance + this, so single-threaded
   callers see identical behavior. *)
let run_due_demons t =
  require_live t;
  maybe_commit t;
  maybe_home_writes t;
  maybe_scrub t;
  match t.monitor with None -> () | Some m -> Monitor.maybe_sample m

(* Each demon above acts only on one of these conditions, and nothing
   but an operation, a force or a demon pass on this volume changes
   them; time alone makes only the three deadlines come due. *)
let demons_due_at t =
  if bulk_due t || home_writes_due t then min_int
  else
    let due = Int.min (commit_due_at t) (scrub_due_at t) in
    match t.monitor with None -> due | Some m -> Int.min due (Monitor.due_at m)

let tick t ~us =
  require_live t;
  Simclock.advance t.clock us;
  run_due_demons t

(* ------------------------------------------------------------------ *)
(* Submission API: execute now, wait for the covering force later.

   A server scheduler runs each client operation to completion through
   [submit], which suppresses the interval-driven force for the duration
   (the batcher owns commit timing) and returns a completion token. The
   token is durable once a force covering every mutation the operation
   made has completed — the moment the paper's client, "the process doing
   the commit", may be unparked (§5.4). *)

type token = int

let always_durable : token = 0

let submit t f =
  require_live t;
  let was = t.autocommit in
  t.autocommit <- false;
  let before = t.mutation_seq in
  match f () with
  | v ->
    t.autocommit <- was;
    let tok = if t.mutation_seq > before then t.mutation_seq else always_durable in
    (v, tok)
  | exception e ->
    t.autocommit <- was;
    raise e

let token_durable t (tok : token) = t.durable_seq >= tok
let mutation_seq t = t.mutation_seq
let durable_seq t = t.durable_seq

(* ------------------------------------------------------------------ *)
(* Telemetry monitor                                                   *)

let monitor t = t.monitor

(* The saturation gauges: derived per-interval figures that answer "was
   the system saturated during this 100ms?" rather than "how much work
   has it done since boot". All are pure functions of the interval's
   counter deltas and current gauge values, so samples stay
   deterministic. Server-side names ("server.acked", ...) read as zero
   until a server registers them — the monitor works unchanged under
   single-threaded callers. *)
let enable_monitor ?(interval_us = Params.monitor_interval_us) t =
  require_live t;
  let m =
    Monitor.create ~interval_us ~now:(fun () -> now t) (Device.metrics t.device)
  in
  let per_second n v = float_of_int n *. 1e6 /. float_of_int (max 1 v.Monitor.dt_us) in
  Monitor.derive m "sat.device_busy" (fun v ->
      (* Deferred/queued devices charge busy_us on their own horizon,
         which can run ahead of the sampling clock — an interval may see
         more busy time than wall time. A fraction above 1.0 just means
         "saturated"; clamp it so the gauge stays a fraction. *)
      Float.min 1.0
        (float_of_int (v.Monitor.delta "device.busy_us")
        /. float_of_int (max 1 v.Monitor.dt_us)));
  Monitor.derive m "sat.log_third_fill" (fun _ -> Log.third_fill t.log);
  Monitor.derive m "sat.queue_depth" (fun v ->
      float_of_int (v.Monitor.value "server.queue_depth"));
  Monitor.derive m "sat.ops_per_force" (fun v ->
      let forces = v.Monitor.delta "fsd.forces" in
      if forces = 0 then 0.0
      else float_of_int (v.Monitor.delta "server.acked") /. float_of_int forces);
  Monitor.derive m "sat.op_rate_s" (fun v -> per_second (v.Monitor.delta "fsd.ops") v);
  Monitor.derive m "sat.home_write_burst_rate_s" (fun v ->
      per_second (v.Monitor.delta "fsd.home_write_bursts") v);
  (* Per-phase occupancy gauges (the live face of the latency anatomy):
     accumulated phase-microseconds per elapsed microsecond, i.e. the
     average number of ops simultaneously inside that phase over the
     sample window. The server maintains the underlying counters with
     tracing off; standalone (serverless) runs read 0. *)
  let phase_occupancy name counter =
    Monitor.derive m name (fun v ->
        float_of_int (v.Monitor.delta counter)
        /. float_of_int (max 1 v.Monitor.dt_us))
  in
  phase_occupancy "sat.phase_queue" "server.phase.queue_us";
  phase_occupancy "sat.phase_execute" "server.phase.execute_us";
  phase_occupancy "sat.phase_append" "server.phase.append_us";
  phase_occupancy "sat.phase_parked" "server.phase.parked_us";
  Monitor.watch_dist m "server.commit_wait_us";
  Monitor.watch_dist m "server.op_latency_us";
  t.monitor <- Some m;
  m

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let format device params =
  let geom = Device.geometry device in
  let layout = Layout.compute geom params in
  let store = Fnt_store.create_fresh device layout in
  Fnt_store.flush_anchor store;
  (* Nothing reads the reserved region, but zeroing it is part of
     format's I/O: dropping the write would move the arm position and
     clock that every later measurement on the volume starts from. *)
  Device.write_run device ~sector:layout.Layout.reserved_start
    (Bytes.make
       (layout.Layout.reserved_sectors * geom.Geometry.sector_bytes)
       '\000');
  Log.format device layout;
  Vam.save (Vam.create_all_free layout) device;
  Boot_page.write device ~boot_count:0 params

(* Rebuild the map from the name table in one scan: every entry's
   sectors are marked allocated, and an entry that names a sector
   outside the data areas is refused. *)
let reconstruct_vam layout tree clock =
  let vm = Vam.create_all_free layout in
  B.iter tree (fun k v ->
      Simclock.advance clock (Params.cpu_page_us / 2);
      match Entry.decode v with
      | exception Bytebuf.Decode_error m ->
        corrupt (Printf.sprintf "entry %s does not decode during scan: %s" k m)
      | e ->
        if not (Layout.in_data_areas layout e) then
          corrupt (Printf.sprintf "entry %s names a sector outside the data areas" k);
        Vam.mark_entry_allocated vm e);
  vm

(* A logged leader image goes home only while the entry its own key
   names still has that sector as its anchor and the image's uid: the
   file may since have been deleted and the sector reused, and a stale
   image would stomp live data. *)
let leader_still_named tree ~sector image =
  match File_record.decode Leader.format image with
  | None -> false
  | Some { File_record.name; version; uid; _ } -> (
    match B.find tree (Fname.key ~name ~version) with
    | Some v ->
      let e = decode_entry name v in
      e.Entry.anchor = sector && Int64.equal e.Entry.uid uid
    | None | (exception Invalid_argument _) -> false)

let boot ?params device =
  let clock = Device.clock device in
  let geom = Device.geometry device in
  let t_start = Simclock.now clock in
  let bp =
    match Boot_page.read device with
    | Some bp -> bp
    | None -> corrupt "both boot pages are unreadable"
  in
  (* Explicit params win, but for the layout and the shard; otherwise the
     volume's own boot page decides, the VAM-logging flag included. *)
  let p =
    match params with Some p -> Boot_page.adopt bp p | None -> bp.Boot_page.params
  in
  let layout = Layout.compute geom p in
  let boot_count = bp.Boot_page.boot_count + 1 in
  Boot_page.write device ~boot_count bp.Boot_page.params;
  (* Log replay (Log.recover): one sequential pass over the live log
     region that reads no log sector twice and leaves the final image of
     each logged unit, so each unit is written home exactly once, in id
     order. Replay is unconditional: it is also what rolls back
     uncommitted state a diverged page's home copy could never hold. *)
  let r0 = Simclock.now clock in
  let rec_info = Log.recover ~shard:p.Params.shard_id device layout in
  let images_of kind_id =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.filter_map
         (fun (kind, image, no) ->
           Option.map (fun id -> (id, image, no)) (kind_id kind))
         rec_info.Log.images)
  in
  let fnt_images = images_of (function Log.Fnt_page id -> Some id | _ -> None) in
  let leader_images = images_of (function Log.Leader_page s -> Some s | _ -> None) in
  let vam_chunk_images = images_of (function Log.Vam_chunk c -> Some c | _ -> None) in
  List.iter
    (fun (id, image, _) -> Fnt_store.write_home_image device layout ~page:id image)
    fnt_images;
  Simclock.advance clock (Params.cpu_page_us * rec_info.Log.replayed_records * 4);
  let log_replay_us = Simclock.now clock - r0 in
  let trace_boot ev =
    let tr = Device.trace device in
    if Trace.enabled tr then Trace.emit tr ~at:(Simclock.now clock) ev
  in
  trace_boot (Trace.Recovery_phase { phase = "log-replay"; us = log_replay_us });
  (* Install everything replay found before Log.attach moves the
     recovery pointer, recovery's commit point: until it moves, a crash
     replays this same log and installs it all again. The name table is
     attached first, so a table beyond repair fails the boot while the
     scavenger can still see this log. *)
  let store = Fnt_store.attach device layout in
  let tree = B.attach store in
  let vetted =
    List.filter (fun (sector, image, _) -> leader_still_named tree ~sector image) leader_images
  in
  List.iter (fun (sector, image, _) -> Device.write device sector image) vetted;
  let base_no =
    match rec_info.Log.last_record_no with
    | Some n -> max n rec_info.Log.pointer_record_no
    | None -> rec_info.Log.pointer_record_no
  in
  let next_record_no = Int64.add base_no 1_000_000L in
  (* A [Log_based] base holds every change up to its epoch, so it is
     trusted only when replay reached that epoch: at most the last
     replayed record or, when nothing replayed, below the pointer's. *)
  let reached epoch =
    match rec_info.Log.last_record_no with
    | Some n -> Int64.compare epoch n <= 0
    | None -> Int64.compare epoch rec_info.Log.pointer_record_no < 0
  in
  (* The map. With VAM logging: a base replay reached, plus the chunk
     images logged after its epoch, else a rebuild from the name table,
     saved as the new base stamped just below this session's first
     record. Without: a clean snapshot, else a rebuild. A saved map the
     session will not keep current is marked stale: a snapshot once the
     volume is live, and a base no chunk images will be logged for. *)
  let vam_phase () =
    let v0 = Simclock.now clock in
    let vam, source =
      match (Vam.load layout device, p.Params.log_vam) with
      | Some (vm, Vam.Log_based, epoch), true when reached epoch ->
        (* Chunk images from records at or below the epoch predate the
           base: skip them. *)
        List.iter
          (fun (c, image, no) -> if Int64.compare no epoch > 0 then Vam.apply_chunk vm c image)
          vam_chunk_images;
        Simclock.advance clock (List.length vam_chunk_images * Params.cpu_page_us);
        (vm, Vam_replayed)
      | Some (vm, mode, _), false ->
        Vam.invalidate_saved layout device;
        if mode = Vam.Snapshot then (vm, Vam_loaded)
        else (reconstruct_vam layout tree clock, Vam_reconstructed)
      | Some _, true | None, _ -> (reconstruct_vam layout tree clock, Vam_reconstructed)
    in
    if p.Params.log_vam then begin
      Vam.save ~mode:Vam.Log_based ~epoch:(Int64.pred next_record_no) vam device;
      ignore (Vam.drain_dirty_chunks vam : int list)
    end;
    (vam, source, Simclock.now clock - v0)
  in
  (* With VAM logging the new base is installed before the pointer
     moves, so a refused base is overwritten before a later crash could
     trust it; without, the map's I/O stays after the pointer. *)
  let logged_vam = if p.Params.log_vam then Some (vam_phase ()) else None in
  let t_ref = ref None in
  let on_enter j =
    match !t_ref with Some t -> handle_enter_third t j | None -> ()
  in
  let log =
    Log.attach ~shard:p.Params.shard_id device layout ~boot_count ~next_record_no
      ~write_off:rec_info.Log.next_write_off ~on_enter_third:on_enter
  in
  let vam, vam_source, vam_us =
    match logged_vam with Some v -> v | None -> vam_phase ()
  in
  let vam_source_str =
    match vam_source with
    | Vam_loaded -> "loaded"
    | Vam_reconstructed -> "reconstructed"
    | Vam_replayed -> "replayed"
  in
  trace_boot (Trace.Vam_rebuild { source = vam_source_str; us = vam_us });
  let t =
    {
      device;
      clock;
      layout;
      params = p;
      store;
      tree;
      log;
      alloc = Alloc.create vam;
      pending_leaders = Hashtbl.create 32;
      chunk_thirds = Hashtbl.create 32;
      verified = Hashtbl.create 256;
      last_force = Simclock.now clock;
      last_force_io = None;
      live = true;
      mutation_seq = 0;
      durable_seq = 0;
      autocommit = true;
      homed_third = -1;
      last_scrub = Simclock.now clock;
      scrub_page_cursor = 0;
      scrub_key_cursor = "";
      monitor = None;
      create_image = Bytes.empty;
      boot_count;
      meters = mk_meters (Device.metrics device);
    }
  in
  t_ref := Some t;
  (* Boot and replay above ran on the device's timing engine as it
     was: synchronously on a fresh single-volume device, but on its own
     timeline (multi-volume) or through the queue (a reboot in place)
     otherwise — in which case [total_us] counts no device time. Only
     from here on does steady-state traffic ride the configured queue. *)
  if p.Params.disk_qdepth >= 2 then
    Device.set_queue device ~policy:p.Params.disk_sched
      ~depth:p.Params.disk_qdepth;
  let reg = Device.metrics device in
  Metrics.gauge reg "vam.free_sectors" (fun () ->
      Vam.free_count (Alloc.vam t.alloc));
  Metrics.gauge reg "vam.shadow_pending" (fun () ->
      Vam.shadow_count (Alloc.vam t.alloc));
  Metrics.gauge reg "vam.dirty_chunks" (fun () ->
      Vam.dirty_chunk_count (Alloc.vam t.alloc));
  let total_us = Simclock.now clock - t_start in
  trace_boot (Trace.Recovery_phase { phase = "total"; us = total_us });
  let report =
    {
      boot_count;
      replayed_records = rec_info.Log.replayed_records;
      replayed_pages =
        List.length fnt_images + List.length leader_images
        + List.length vam_chunk_images;
      corrected_sectors = rec_info.Log.corrected_sectors;
      skipped_leaders = List.length leader_images - List.length vetted;
      vam_source;
      log_replay_us;
      vam_us;
      total_us;
    }
  in
  (t, report)

(* Boot raises on unrecoverable metadata damage (both copies of an FNT
   page gone, anchor undecodable, …). try_boot turns that into an outcome
   the caller can answer with the scavenger. *)
let try_boot ?params device =
  match boot ?params device with
  | v -> `Ok v
  | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata m) -> `Needs_scavenge m
  | exception Cedar_btree.Btree.Corrupt m -> `Needs_scavenge ("name table: " ^ m)

let shutdown t =
  require_live t;
  force t;
  (* The force left every dirty unit's last log copy in some third. *)
  for j = 0 to 2 do
    ignore (home_third t j : int * int)
  done;
  Log.reset_pointer t.log;
  let mode = if t.params.Params.log_vam then Vam.Log_based else Vam.Snapshot in
  Vam.save ~mode
    ~epoch:(Int64.sub (Log.next_record_no t.log) 1L)
    (Alloc.vam t.alloc) t.device;
  ignore (Vam.drain_dirty_chunks (Alloc.vam t.alloc) : int list);
  Hashtbl.reset t.chunk_thirds;
  Boot_page.write t.device ~boot_count:t.boot_count t.params;
  t.live <- false

(* ------------------------------------------------------------------ *)
(* Checking and the Ops vtable                                         *)

let check t =
  match B.check t.tree with
  | Error m -> Error ("btree: " ^ m)
  | Ok () -> (
    let bad = ref [] in
    (* Leader/name-table mutual check, plus an allocation audit: every
       referenced sector must be marked allocated and no sector may be
       claimed twice. *)
    let claimed = Hashtbl.create 256 in
    let claim k s =
      if Hashtbl.mem claimed s then
        bad := Printf.sprintf "%s: sector %d claimed twice" k s :: !bad
      else begin
        Hashtbl.replace claimed s ();
        if Vam.is_free (Alloc.vam t.alloc) s then
          bad := Printf.sprintf "%s: sector %d in use but marked free" k s :: !bad
      end
    in
    B.iter t.tree (fun k v ->
        match Entry.decode v with
        | exception Bytebuf.Decode_error m -> bad := (k ^ ": " ^ m) :: !bad
        | e when not (Layout.in_data_areas t.layout e) ->
          (* Judged a run at a time before any sector is touched: a
             sealed run may claim any length. *)
          bad := (k ^ ": names a sector outside the data areas") :: !bad
        | e -> (
          claim k e.Entry.anchor;
          Run_table.iter_sectors e.Entry.runs (claim k);
          Option.iter
            (fun m -> bad := m :: !bad)
            (Run_table.size_mismatch e.Entry.runs ~sector_bytes:(sector_bytes t) ~key:k
               ~byte_size:e.Entry.byte_size);
          let name, version =
            match Fname.parse k with Some (n, v) -> (n, v) | None -> (k, 0)
          in
          match read_leader t e with
          | Some l when Leader.matches l ~name ~version e -> ()
          | Some _ -> bad := (k ^ ": leader mismatch") :: !bad
          | None -> bad := (k ^ ": leader unreadable") :: !bad
          | exception Device.Error _ ->
            bad := (k ^ ": leader sector damaged") :: !bad));
    (* VAM/name-table agreement: each data sector is free, claimed,
       freed by a delete awaiting commit, or quarantined by the
       scavenger. One allocated but none of these has leaked. *)
    let vam = Alloc.vam t.alloc in
    let want =
      Layout.data_sectors t.layout - Hashtbl.length claimed - Vam.shadow_count vam
      - Vam.quarantined vam
    in
    if Vam.free_count vam <> want then
      bad :=
        Printf.sprintf "VAM free count %d disagrees with name table (want %d)"
          (Vam.free_count vam) want
        :: !bad;
    match !bad with
    | [] -> Ok ()
    | problems -> Error (String.concat "; " problems))

let fnt_stats t = B.stats t.tree

let fold_entries t ~init ~f =
  require_live t;
  B.fold_range t.tree ~init ~f:(fun acc k v ->
      match Fname.parse k with
      | None -> acc
      | Some (name, version) -> f acc ~name ~version (decode_entry name v))

let sector_is_free t s = Vam.is_free (Alloc.vam t.alloc) s

let ops t =
  {
    Fs_ops.label = "FSD";
    create = (fun ~name ~data -> create t ~name data);
    open_stat = (fun ~name -> open_stat t ~name);
    read_all = (fun ~name -> read_all t ~name);
    read_page = (fun ~name ~page -> read_page t ~name ~page);
    delete = (fun ~name -> delete t ~name);
    list = (fun ~prefix -> list t ~prefix);
    force = (fun () -> force t);
    device = t.device;
    clock = t.clock;
  }
