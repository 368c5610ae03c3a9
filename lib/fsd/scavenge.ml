open Cedar_util
open Cedar_disk
open Cedar_fsbase

module B = Cedar_btree.Btree.Make (Fnt_store)

type report = {
  entries_kept : int;
  entries_rebuilt : int;
  leaders_rewritten : int;
  stale_leaders : int;
  conflicts : int;
  quarantined_sectors : int;
  fnt_pages_lost : int;
  replayed_records : int;
  duration_us : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%d entries kept, %d rebuilt from leaders, %d leaders rewritten, %d \
     stale leaders dropped, %d conflicts (%d sectors quarantined), %d FNT \
     page pairs lost, %d log records replayed"
    r.entries_kept r.entries_rebuilt r.leaders_rewritten r.stale_leaders r.conflicts
    r.quarantined_sectors r.fnt_pages_lost r.replayed_records

(* A logged leader image may be applied to its home sector only when
   doing so cannot clobber live data: either the sector currently holds a
   leader for the same uid (this is a newer image of it), or the sector
   is unreadable (nothing to lose). A readable sector holding anything
   else may be reused file data — leave it alone; the merge pass decides
   from what is actually on disk. *)
let apply_logged_leader device sector image =
  match Leader.decode image with
  | None -> ()
  | Some l -> (
    match Device.read device sector with
    | exception Device.Error _ -> Device.write device sector image
    | current -> (
      match Leader.decode current with
      | Some cur when Int64.equal cur.Leader.uid l.Leader.uid ->
        Device.write device sector image
      | Some _ | None -> ()))

let entry_sectors (e : Entry.t) =
  let acc = ref [ e.Entry.anchor ] in
  Run_table.iter_sectors e.Entry.runs (fun s -> acc := s :: !acc);
  !acc

let run device =
  let clock = Device.clock device in
  let t0 = Simclock.now clock in
  let geom = Device.geometry device in
  (* The volume's params normally come from the boot page; when both boot
     pages are gone too, fall back to the parameters [format] would pick
     for this geometry — the only guess available. *)
  let bp = Boot_page.read device in
  let params =
    match bp with
    | Some bp -> bp.Boot_page.params
    | None -> Params.for_geometry geom
  in
  let layout = Layout.compute geom params in
  let phase_start = ref t0 in
  (* Fresh series per run: the registry reports the latest scavenge. *)
  let phase_us =
    Cedar_obs.Metrics.dist (Device.metrics device) "scavenge.phase_us"
  in
  let end_phase name =
    let us = Simclock.now clock - !phase_start in
    Cedar_util.Stats.add phase_us (float_of_int us);
    let tr = Device.trace device in
    if Cedar_obs.Trace.enabled tr then
      Cedar_obs.Trace.emit tr ~at:(Simclock.now clock)
        (Cedar_obs.Trace.Scavenge_phase { phase = name; us });
    phase_start := Simclock.now clock
  in
  (* Phase 1: the log first — committed page images supersede whatever is
     in the home locations, and may resurrect whole FNT pages. *)
  let rec_info = Log.recover ~shard:params.Params.shard_id device layout in
  List.iter
    (fun (kind, image, _no) ->
      match kind with
      | Log.Fnt_page page -> Fnt_store.write_home_image device layout ~page image
      | Log.Leader_page s -> apply_logged_leader device s image
      | Log.Vam_chunk _ -> ())
    rec_info.Log.images;
  end_phase "log-replay";
  (* Phase 2: salvage the surviving name table. A failed attach or a
     failed descent keeps whatever entries were reached — each one sits
     in a checksummed page, so partial salvage is sound. *)
  let tree_entries = ref [] in
  let uid_floor = ref 1L in
  let store_opt =
    match Fnt_store.attach device layout with
    | store -> Some store
    | exception Fs_error.Fs_error _ -> None
  in
  let tree_complete =
    match store_opt with
    | None -> false
    | Some store -> (
      uid_floor := Fnt_store.next_uid_peek store;
      let tree = B.attach store in
      match B.iter tree (fun k v -> tree_entries := (k, v) :: !tree_entries) with
      | () -> true
      | exception Fs_error.Fs_error _ -> false
      | exception Cedar_btree.Btree.Corrupt _ -> false)
  in
  (* Count page pairs that are beyond the twin-copy scheme. Without an
     anchor the allocation map is unknown; fall back to "has either copy
     ever been written". *)
  let fnt_pages_lost = ref 0 in
  for page = 0 to params.Params.fnt_pages - 1 do
    let relevant =
      match store_opt with
      | Some store -> Fnt_store.page_in_use store page
      | None ->
        Device.written_ever device (Layout.fnt_sector_a layout ~page)
        || Device.written_ever device (Layout.fnt_sector_b layout ~page)
    in
    if relevant && Fnt_store.try_read_home device layout ~page = None then
      incr fnt_pages_lost
  done;
  end_phase "salvage-fnt";
  (* Phase 3: sweep the data areas for leader pages. Every leader is a
     checksummed copy of its file's entry, physically placed just before
     the file's first data page. *)
  let leaders = ref [] in
  let sweep lo hi =
    for s = lo to hi - 1 do
      Simclock.advance clock (Params.cpu_page_us / 8);
      match Device.read device s with
      | exception Device.Error _ -> ()
      | b -> (
        match Leader.decode b with
        | Some l -> leaders := (s, l) :: !leaders
        | None -> ())
    done
  in
  sweep layout.Layout.small_lo layout.Layout.small_hi;
  sweep layout.Layout.big_lo layout.Layout.big_hi;
  end_phase "leader-sweep";
  (* Phase 4: merge. Salvaged FNT entries are accepted first (the table
     is the primary structure); leaders then fill the holes, newest uid
     first, so a lingering leader of a deleted-and-recreated name loses
     to the live one. All sector claims are tracked: overlapping claims
     are conflicts, and the loser's sectors are quarantined — kept
     allocated but referenced by nothing — instead of being handed out.
     A leader that cannot describe a file — a byte size its pages do not
     fill exactly, or a sector outside the data areas — is a conflict
     too, whose sectors inside the data areas are quarantined. *)
  let claimed = Hashtbl.create 1024 in
  let accepted : (string, Entry.t) Hashtbl.t = Hashtbl.create 256 in
  let accepted_uids = Hashtbl.create 256 in
  let quarantine = Hashtbl.create 64 in
  let conflicts = ref 0 in
  let try_claim e =
    let sectors = entry_sectors e in
    if List.exists (Hashtbl.mem claimed) sectors then false
    else begin
      List.iter (fun s -> Hashtbl.replace claimed s ()) sectors;
      true
    end
  in
  let kept = ref [] in
  List.iter
    (fun (k, v) ->
      match Entry.decode v with
      | exception Bytebuf.Decode_error _ -> incr conflicts
      | exception Invalid_argument _ -> incr conflicts
      | e ->
        let ok = e.Entry.anchor < 0 || try_claim e in
        if ok then begin
          Hashtbl.replace accepted k e;
          Hashtbl.replace accepted_uids e.Entry.uid ();
          kept := (k, e) :: !kept
        end
        else incr conflicts)
    (List.rev !tree_entries);
  let entries_rebuilt = ref 0 in
  let stale_leaders = ref 0 in
  let by_uid_desc =
    List.sort (fun (_, a) (_, b) -> Int64.compare b.Leader.uid a.Leader.uid) !leaders
  in
  List.iter
    (fun (sector, (l : Leader.t)) ->
      if Hashtbl.mem accepted_uids l.Leader.uid then ()
      else if tree_complete then
        (* The whole table survived and does not know this uid: the file
           was deleted; the leader is a stale husk. *)
        incr stale_leaders
      else if
        Fname.validate l.Leader.name <> Ok ()
        || l.Leader.version < 1
        || l.Leader.version > 999_999
      then incr conflicts
      else begin
        let key = Fname.key ~name:l.Leader.name ~version:l.Leader.version in
        let e = Leader.to_entry l ~anchor:sector in
        let describes_a_file =
          Run_table.holds e.Entry.runs ~sector_bytes:geom.Geometry.sector_bytes
            ~byte_size:e.Entry.byte_size
          && List.for_all (Layout.is_data_sector layout) (entry_sectors e)
        in
        if (not describes_a_file) || Hashtbl.mem accepted key || not (try_claim e)
        then begin
          (* Refused, or lost to a newer claim on the key or the sectors.
             Keep the loser's unclaimed data sectors out of the free
             pool. *)
          incr conflicts;
          List.iter
            (fun s ->
              if Layout.is_data_sector layout s && not (Hashtbl.mem claimed s)
              then begin
                Hashtbl.replace claimed s ();
                Hashtbl.replace quarantine s ()
              end)
            (entry_sectors e)
        end
        else begin
          Hashtbl.replace accepted key e;
          Hashtbl.replace accepted_uids e.Entry.uid ();
          incr entries_rebuilt
        end
      end)
    by_uid_desc;
  end_phase "merge";
  (* Phase 5: write everything back — fresh FNT, fresh VAM, empty log,
     clean boot page. The rebuilt volume boots with nothing to replay. *)
  let store = Fnt_store.create_fresh device layout in
  let tree = B.attach store in
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k e acc -> (k, e) :: acc) accepted [])
  in
  let max_uid =
    List.fold_left
      (fun m (_, e) ->
        if Int64.compare e.Entry.uid m > 0 then e.Entry.uid else m)
      0L sorted
  in
  List.iter
    (fun (key, e) ->
      Simclock.advance clock Params.cpu_page_us;
      B.insert tree ~key ~value:(Entry.encode e))
    sorted;
  Fnt_store.bump_uid_floor store
    (if Int64.compare !uid_floor (Int64.add max_uid 1L) > 0 then !uid_floor
     else Int64.add max_uid 1L);
  Fnt_store.flush_anchor store;
  (* A kept entry owns its anchor sector, so when the sweep found no
     leader there corroborating the entry (damaged, torn or stale), the
     image the scrubber writes goes home. The sweep already read every
     anchor: this adds writes, not reads. *)
  let swept = Hashtbl.create 256 in
  List.iter (fun (s, l) -> Hashtbl.replace swept s l) !leaders;
  let leaders_rewritten = ref 0 in
  List.iter
    (fun (key, (e : Entry.t)) ->
      match Fname.parse key with
      | Some (name, version) when e.Entry.anchor >= 0 ->
        let corroborated =
          match Hashtbl.find_opt swept e.Entry.anchor with
          | Some l -> Leader.matches l ~name ~version e
          | None -> false
        in
        if not corroborated then begin
          Device.write device e.Entry.anchor
            (Leader.encode (Leader.of_entry ~name ~version e)
               ~sector_bytes:geom.Geometry.sector_bytes);
          incr leaders_rewritten
        end
      | Some _ | None -> ())
    (List.rev !kept);
  let vam = Vam.create_all_free layout in
  List.iter (fun (_, e) -> Vam.mark_entry_allocated vam e) sorted;
  Hashtbl.iter (fun s () -> Vam.quarantine vam s) quarantine;
  Vam.save
    ~mode:(if params.Params.log_vam then Vam.Log_based else Vam.Snapshot)
    ~epoch:0L vam device;
  ignore (Vam.drain_dirty_chunks vam : int list);
  (* Physically erase the log body before formatting it. Record numbers
     restart after a format, so a stale record left in place could alias
     a future record number at the same offset and be replayed into the
     rebuilt volume. *)
  let zero = Bytes.make (64 * geom.Geometry.sector_bytes) '\000' in
  let body_lo = layout.Layout.log_start + 3 in
  let body_hi = layout.Layout.log_start + layout.Layout.log_sectors in
  let s = ref body_lo in
  while !s < body_hi do
    let n = min 64 (body_hi - !s) in
    Device.write_run device ~sector:!s
      (if n = 64 then zero else Bytes.make (n * geom.Geometry.sector_bytes) '\000');
    s := !s + n
  done;
  Log.format device layout;
  Boot_page.write device
    ~boot_count:(match bp with Some bp -> bp.Boot_page.boot_count | None -> 0)
    params;
  end_phase "write-back";
  {
    entries_kept = List.length !kept;
    entries_rebuilt = !entries_rebuilt;
    leaders_rewritten = !leaders_rewritten;
    stale_leaders = !stale_leaders;
    conflicts = !conflicts;
    quarantined_sectors = Hashtbl.length quarantine;
    fnt_pages_lost = !fnt_pages_lost;
    replayed_records = rec_info.Log.replayed_records;
    duration_us = Simclock.now clock - t0;
  }
