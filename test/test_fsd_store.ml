(* Unit tests for FSD's supporting modules: Params, Layout, Vam, Alloc,
   Leader, Boot_page, Fnt_store. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let geom = Geometry.small_test
let params () = Params.for_geometry geom
let layout () = Layout.compute geom (params ())

let mk_device () = Device.create ~clock:(Simclock.create ()) geom

(* ------------------------------------------------------------------ *)
(* Params                                                              *)

let test_params_default_valid () =
  check bool "t300 default" true
    (Params.validate Geometry.trident_t300 Params.default = Ok ());
  check bool "small scaled" true (Params.validate geom (params ()) = Ok ());
  check bool "tiny scaled" true
    (Params.validate Geometry.tiny_test (Params.for_geometry Geometry.tiny_test) = Ok ())

let test_params_rejects_tiny_log () =
  let p = { (params ()) with Params.log_sectors = 10 } in
  check bool "log too small" true (Result.is_error (Params.validate geom p))

let test_params_rejects_huge_metadata () =
  let p = { (params ()) with Params.fnt_pages = 100_000 } in
  check bool "metadata too big" true (Result.is_error (Params.validate geom p))

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let test_layout_regions_disjoint () =
  let l = layout () in
  let total = Geometry.total_sectors geom in
  (* Every sector belongs to exactly one region. *)
  let tag s =
    let in_range lo len = s >= lo && s < lo + len in
    let tags =
      [
        ("boot", s <= 2);
        ("reserved", in_range l.Layout.reserved_start l.Layout.reserved_sectors);
        ("vam", in_range l.Layout.vam_start l.Layout.vam_sectors);
        ("small", s >= l.Layout.small_lo && s < l.Layout.small_hi);
        ("fntA", in_range l.Layout.fnt_a_start l.Layout.fnt_sectors);
        ("log", in_range l.Layout.log_start l.Layout.log_sectors);
        ("fntB", in_range l.Layout.fnt_b_start l.Layout.fnt_sectors);
        ("big", s >= l.Layout.big_lo && s < l.Layout.big_hi);
      ]
    in
    List.filter_map (fun (n, b) -> if b then Some n else None) tags
  in
  for s = 0 to total - 1 do
    match tag s with
    | [ _ ] -> ()
    | ts ->
      Alcotest.fail
        (Printf.sprintf "sector %d in %d regions (%s)" s (List.length ts)
           (String.concat "," ts))
  done

let test_layout_fnt_copies_disjoint_and_far () =
  let l = layout () in
  let p = l.Layout.params in
  for page = 0 to p.Params.fnt_pages - 1 do
    let a = Layout.fnt_sector_a l ~page and b = Layout.fnt_sector_b l ~page in
    if abs (a - b) <= l.Layout.log_sectors then
      Alcotest.fail "copies too close: the log must separate them"
  done

let test_layout_data_sector_predicate () =
  let l = layout () in
  check bool "small area is data" true (Layout.is_data_sector l l.Layout.small_lo);
  check bool "big area is data" true (Layout.is_data_sector l (l.Layout.big_hi - 1));
  check bool "log is not" false (Layout.is_data_sector l l.Layout.log_start);
  check bool "fnt is not" false (Layout.is_data_sector l l.Layout.fnt_a_start);
  check bool "boot is not" false (Layout.is_data_sector l 0)

(* ------------------------------------------------------------------ *)
(* Vam                                                                 *)

let test_vam_alloc_release () =
  let v = Vam.create_all_free (layout ()) in
  let l = layout () in
  let free0 = Vam.free_count v in
  check int "all data sectors free" (Layout.data_sectors l) free0;
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:5;
  check int "five gone" (free0 - 5) (Vam.free_count v);
  (match Vam.allocate_run v ~pos:l.Layout.small_lo ~len:1 with
  | () -> Alcotest.fail "double allocation must fail"
  | exception Invalid_argument _ -> ());
  Vam.release_run v ~pos:l.Layout.small_lo ~len:5;
  check int "restored" free0 (Vam.free_count v);
  match Vam.release_run v ~pos:l.Layout.small_lo ~len:1 with
  | () -> Alcotest.fail "double free must fail"
  | exception Invalid_argument _ -> ()

(* A release that fails frees nothing: the whole run is checked before
   any bit is set, whether the fault is a sector already free or a
   metadata sector. *)
let test_vam_failed_release_frees_nothing () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let lo = l.Layout.small_lo in
  Vam.allocate_run v ~pos:lo ~len:4;
  Vam.release_run v ~pos:(lo + 3) ~len:1;
  let free1 = Vam.free_count v in
  ignore (Vam.drain_dirty_chunks v : int list);
  (match Vam.release_run v ~pos:lo ~len:4 with
  | () -> Alcotest.fail "releasing a run with a free sector must fail"
  | exception Invalid_argument _ -> ());
  check int "free count unchanged" free1 (Vam.free_count v);
  check bool "first three still allocated" false
    (List.exists (fun s -> Vam.is_free v s) [ lo; lo + 1; lo + 2 ]);
  check int "no chunk dirtied" 0 (Vam.dirty_chunk_count v);
  let top = l.Layout.small_hi - 2 in
  Vam.allocate_run v ~pos:top ~len:2;
  let free2 = Vam.free_count v in
  (match Vam.release_run v ~pos:top ~len:3 with
  | () -> Alcotest.fail "releasing a run into the name table must fail"
  | exception Invalid_argument _ -> ());
  check int "metadata run frees nothing" free2 (Vam.free_count v)

let test_vam_shadow_commit () =
  let v = Vam.create_all_free (layout ()) in
  let l = layout () in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:8;
  let free1 = Vam.free_count v in
  Vam.shadow_release_run v ~pos:l.Layout.small_lo ~len:8;
  check int "not yet free" free1 (Vam.free_count v);
  check int "shadowed" 8 (Vam.shadow_count v);
  Vam.commit_shadow v;
  check int "free after commit" (free1 + 8) (Vam.free_count v);
  check int "shadow drained" 0 (Vam.shadow_count v)

let test_vam_shadow_double_free () =
  let l = layout () in
  let commit_fails v what =
    match Vam.commit_shadow v with
    | () -> Alcotest.failf "%s must fail at commit" what
    | exception Invalid_argument _ -> ()
  in
  let v = Vam.create_all_free l in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:8;
  let free1 = Vam.free_count v in
  Vam.shadow_release_run v ~pos:l.Layout.small_lo ~len:8;
  Vam.shadow_release_run v ~pos:l.Layout.small_lo ~len:8;
  commit_fails v "the same run shadow-released twice";
  check int "nothing freed" free1 (Vam.free_count v);
  let v = Vam.create_all_free l in
  let free0 = Vam.free_count v in
  Vam.shadow_release_run v ~pos:l.Layout.small_lo ~len:3;
  commit_fails v "a shadowed run that is already free";
  check int "map unchanged" free0 (Vam.free_count v)

let test_vam_save_load_roundtrip () =
  let device = mk_device () in
  let l = layout () in
  let v = Vam.create_all_free l in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:13;
  Vam.save v device;
  (match Vam.load l device with
  | Some (v', Vam.Snapshot, _) ->
    check int "same free count" (Vam.free_count v) (Vam.free_count v')
  | Some (_, Vam.Log_based, _) -> Alcotest.fail "default mode must be Snapshot"
  | None -> Alcotest.fail "clean save must load");
  Vam.invalidate_saved l device;
  match Vam.load l device with
  | None -> ()
  | Some _ -> Alcotest.fail "invalidated save must not load"

let test_vam_load_rejects_damage () =
  let device = mk_device () in
  let l = layout () in
  Vam.save (Vam.create_all_free l) device;
  Device.damage device (l.Layout.vam_start + 1);
  match Vam.load l device with
  | None -> ()
  | Some _ -> Alcotest.fail "damaged body must not load"

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)

let test_alloc_small_in_small_area () =
  let l = layout () in
  let a = Alloc.create (Vam.create_all_free l) in
  match Alloc.allocate a ~sectors:4 ~small:true with
  | Ok [ r ] ->
    check bool "in small area" true
      (r.Run_table.start >= l.Layout.small_lo && r.Run_table.start < l.Layout.small_hi)
  | Ok _ -> Alcotest.fail "expected one run"
  | Error _ -> Alcotest.fail "allocation failed"

let test_alloc_big_from_top () =
  let l = layout () in
  let a = Alloc.create (Vam.create_all_free l) in
  match Alloc.allocate a ~sectors:64 ~small:false with
  | Ok [ r ] ->
    check bool "in big area" true (r.Run_table.start >= l.Layout.big_lo);
    check int "flush against the top" l.Layout.big_hi (r.Run_table.start + r.Run_table.len)
  | Ok _ -> Alcotest.fail "expected one run"
  | Error _ -> Alcotest.fail "allocation failed"

let test_alloc_spills_to_other_area () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  (* exhaust the small area *)
  let small_len = l.Layout.small_hi - l.Layout.small_lo in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:small_len;
  match Alloc.allocate a ~sectors:4 ~small:true with
  | Ok [ r ] -> check bool "spilled to big" true (r.Run_table.start >= l.Layout.big_lo)
  | Ok _ | Error _ -> Alcotest.fail "expected a spill allocation"

let test_alloc_volume_full () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  let rec drain () =
    match Alloc.allocate a ~sectors:64 ~small:true with
    | Ok _ -> drain ()
    | Error `Volume_full -> ()
    | Error `Too_fragmented -> Alcotest.fail "unexpected fragmentation"
  in
  drain ();
  check bool "under 64 left" true (Vam.free_count v < 64)

let test_alloc_fragments_when_needed () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  (* Perforate the small area so no run of 8 exists there, and consume
     the big area entirely. *)
  let s = ref l.Layout.small_lo in
  while !s + 4 <= l.Layout.small_hi do
    Vam.allocate_run v ~pos:!s ~len:4;
    s := !s + 8
  done;
  Vam.allocate_run v ~pos:l.Layout.big_lo ~len:(l.Layout.big_hi - l.Layout.big_lo);
  match Alloc.allocate a ~sectors:12 ~small:true with
  | Ok runs ->
    check bool "multiple runs" true (List.length runs > 1);
    check int "right total" 12
      (List.fold_left (fun acc r -> acc + r.Run_table.len) 0 runs)
  | Error _ -> Alcotest.fail "fragmented allocation should succeed"

(* Both ways an allocation fails give back the runs it gathered first. *)
let test_alloc_failure_takes_nothing () =
  let l = layout () in
  let full_volume () =
    let v = Vam.create_all_free l in
    Vam.allocate_run v ~pos:l.Layout.small_lo ~len:(l.Layout.small_hi - l.Layout.small_lo);
    Vam.allocate_run v ~pos:l.Layout.big_lo ~len:(l.Layout.big_hi - l.Layout.big_lo);
    v
  in
  let fails_cleanly label v ~sectors want =
    let free = Vam.free_count v in
    (match Alloc.allocate (Alloc.create v) ~sectors ~small:true with
    | Error e -> check bool (label ^ ": failure mode") true (e = want)
    | Ok _ -> Alcotest.fail (label ^ ": allocation should fail"));
    check int (label ^ ": free count unchanged") free (Vam.free_count v)
  in
  (* the big area full, the small one perforated into 1-sector holes *)
  let v = full_volume () in
  let s = ref (l.Layout.small_lo + 1) in
  while !s < l.Layout.small_hi - 1 do
    Vam.release_run v ~pos:!s ~len:1;
    s := !s + 2
  done;
  fails_cleanly "too fragmented" v
    ~sectors:((params ()).Params.max_runs_per_file + 1)
    `Too_fragmented;
  (* 3 free sectors, two of them adjacent, for a request of 4 *)
  let v = full_volume () in
  Vam.release_run v ~pos:l.Layout.small_lo ~len:2;
  Vam.release_run v ~pos:l.Layout.big_lo ~len:1;
  fails_cleanly "volume full" v ~sectors:4 `Volume_full

(* ------------------------------------------------------------------ *)
(* Leader                                                              *)

let sample_entry =
  Entry.local ~uid:31337L ~keep:2 ~byte_size:4_000 ~created:777
    ~runs:(Run_table.of_runs [ { Run_table.start = 5_000; len = 8 } ])
    ~anchor:4_999

let test_leader_roundtrip () =
  let l = Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry in
  let b = Leader.encode l ~sector_bytes:512 in
  check int "one sector" 512 (Bytes.length b);
  match Leader.decode b with
  | Some l' ->
    check bool "matches entry" true
      (Leader.matches l' ~name:"dir/sample" ~version:3 sample_entry);
    check bool "same" true (l = l');
    check bool "entry rebuilt" true
      (Entry.equal (Leader.to_entry l' ~anchor:4_999) sample_entry)
  | None -> Alcotest.fail "decode failed"

let test_leader_mismatch_detected () =
  let l = Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry in
  let other = { sample_entry with Entry.uid = 99L } in
  check bool "uid mismatch" false
    (Leader.matches l ~name:"dir/sample" ~version:3 other);
  check bool "name mismatch" false
    (Leader.matches l ~name:"dir/other" ~version:3 sample_entry);
  check bool "version mismatch" false
    (Leader.matches l ~name:"dir/sample" ~version:4 sample_entry);
  let grown =
    { sample_entry with
      Entry.runs = Run_table.of_runs [ { Run_table.start = 5_000; len = 9 } ]
    }
  in
  check bool "run-table change detected" false
    (Leader.matches l ~name:"dir/sample" ~version:3 grown)

let test_leader_garbage_rejected () =
  check bool "zeros" true (Leader.decode (Bytes.make 512 '\000') = None);
  let b =
    Leader.encode
      (Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry)
      ~sector_bytes:512
  in
  Bytes.set b 9 'X';
  check bool "bitflip" true (Leader.decode b = None)

(* ------------------------------------------------------------------ *)
(* Boot page                                                           *)

let test_boot_page_roundtrip () =
  let device = mk_device () in
  let stamped =
    {
      (params ()) with
      Params.fnt_page_sectors = 2;
      fnt_pages = 80;
      log_sectors = 642;
      log_vam = true;
      track_tolerant_log = false;
      shard_id = 3;
    }
  in
  (* Runtime knobs are not stamped: the page reads back the geometry's. *)
  Boot_page.write device ~boot_count:7
    { stamped with Params.commit_interval_us = 1; disk_qdepth = 4 };
  let bp =
    match Boot_page.read device with
    | Some bp -> bp
    | None -> Alcotest.fail "read failed"
  in
  check int "boot count" 7 bp.Boot_page.boot_count;
  check bool "roundtrip" true (bp.Boot_page.params = stamped);
  (* the replica carries it through primary damage *)
  Device.damage device 0;
  match Boot_page.read device with
  | Some bp' -> check bool "replica" true (bp = bp')
  | None -> Alcotest.fail "replica failed"

(* ------------------------------------------------------------------ *)
(* Fnt_store                                                           *)

let mk_store ?cache_pages () =
  let device = mk_device () in
  let p = params () in
  let p =
    match cache_pages with Some n -> { p with Params.cache_pages = n } | None -> p
  in
  let l = Layout.compute geom p in
  let s = Fnt_store.create_fresh device l in
  Fnt_store.flush_anchor s;
  (device, l, s)

let page_payload s c = Bytes.make (Fnt_store.page_bytes s) c

let test_store_write_is_cached_not_on_disk () =
  let device, _, s = mk_store () in
  let before = (Device.stats device).Iostats.writes in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'z');
  check int "no disk writes yet" before (Device.stats device).Iostats.writes;
  check bool "page dirty" true (List.mem page (Fnt_store.dirty_pages s));
  check bool "to log" true (List.mem page (Fnt_store.pages_to_log s))

let test_store_flush_writes_both_copies () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'q');
  Fnt_store.mark_logged s [ page ] ~third:1;
  check int "one page flushed" 1 (Fnt_store.flush_third s 1) ;
  (* fresh store reads it back from either copy *)
  let s2 = Fnt_store.attach device l in
  check bool "content back" true
    (Bytes.equal (page_payload s 'q') (Fnt_store.read s2 page))

let test_store_repairs_bad_copy () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'r');
  Fnt_store.mark_logged s [ page ] ~third:0;
  ignore (Fnt_store.flush_third s 0 : int);
  Device.damage device (Layout.fnt_sector_a l ~page);
  let s2 = Fnt_store.attach device l in
  check bool "read heals" true (Bytes.equal (page_payload s 'r') (Fnt_store.read s2 page));
  check bool "repair counted" true (Fnt_store.repairs s2 > 0);
  check bool "copy A healed" false (Device.is_damaged device (Layout.fnt_sector_a l ~page))

let test_store_both_copies_bad_raises () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'x');
  ignore (Fnt_store.flush_all_dirty s : int);
  Device.damage device (Layout.fnt_sector_a l ~page);
  Device.damage device (Layout.fnt_sector_b l ~page);
  let s2 = Fnt_store.attach device l in
  match Fnt_store.read s2 page with
  | _ -> Alcotest.fail "expected Corrupt_metadata"
  | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata _) -> ()

let test_store_modified_tracking () =
  let _, _, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'a');
  Fnt_store.mark_logged s [ page ] ~third:2;
  check bool "logged page not re-logged" false (List.mem page (Fnt_store.pages_to_log s));
  check bool "still dirty" true (List.mem page (Fnt_store.dirty_pages s));
  Fnt_store.write s page (page_payload s 'b');
  check bool "modified again -> re-log" true (List.mem page (Fnt_store.pages_to_log s))

let test_store_uid_and_anchor_persist () =
  let device, l, s = mk_store () in
  let u1 = Fnt_store.fresh_uid s in
  let u2 = Fnt_store.fresh_uid s in
  check bool "uids distinct" true (u1 <> u2);
  Fnt_store.set_root s (Some 17);
  ignore (Fnt_store.flush_all_dirty s : int);
  let s2 = Fnt_store.attach device l in
  check (Alcotest.option int) "root persisted" (Some 17) (Fnt_store.get_root s2);
  check bool "uid counter persisted" true
    (Int64.compare (Fnt_store.next_uid_peek s2) u2 > 0)

let test_store_free_page_reusable () =
  let _, _, s = mk_store () in
  let p1 = Fnt_store.alloc s in
  Fnt_store.write s p1 (page_payload s 'f');
  Fnt_store.free s p1;
  check bool "freed page not dirty" false (List.mem p1 (Fnt_store.dirty_pages s));
  let p2 = Fnt_store.alloc s in
  check int "slot reused" p1 p2

(* The read contract the B-tree's node memo relies on: the store hands
   out its cached payload itself, so [read] returns physically the same
   bytes while a page is unchanged, and new bytes once it is rewritten
   or has left the cache. *)
let test_store_read_identity () =
  let _, _, s = mk_store ~cache_pages:8 () in
  let page = Fnt_store.alloc s in
  let written = page_payload s 'm' in
  Fnt_store.write s page written;
  let b = Fnt_store.read s page in
  check bool "read hands out the written bytes" true (b == written);
  check bool "unchanged page, same bytes" true (Fnt_store.read s page == b);
  (* A force logs the image; reclaiming its third homes it. *)
  ignore (Fnt_store.framed_image s page : bytes);
  Fnt_store.mark_logged s (Fnt_store.pages_to_log s) ~third:1;
  check bool "same bytes across a force" true (Fnt_store.read s page == b);
  check int "home write" 2 (Fnt_store.flush_third s 1);
  check bool "same bytes across a home write" true (Fnt_store.read s page == b);
  Fnt_store.write s page (page_payload s 'n');
  let b' = Fnt_store.read s page in
  check bool "new bytes after write" false (b' == b);
  ignore (Fnt_store.flush_all_dirty s : int);
  Fnt_store.drop_clean_cache s;
  let b'' = Fnt_store.read s page in
  check bool "new bytes after drop_clean_cache" false (b'' == b');
  check bool "same contents from home" true (Bytes.equal b'' b');
  (* Eviction: read more clean pages than the cache holds. *)
  let others =
    List.init 10 (fun i ->
        let p = Fnt_store.alloc s in
        Fnt_store.write s p (page_payload s (Char.chr (Char.code 'a' + i)));
        p)
  in
  ignore (Fnt_store.flush_all_dirty s : int);
  Fnt_store.drop_clean_cache s;
  let b3 = Fnt_store.read s page in
  List.iter (fun p -> ignore (Fnt_store.read s p : bytes)) others;
  let b4 = Fnt_store.read s page in
  check bool "new bytes after eviction" false (b4 == b3);
  check bool "same contents after eviction" true (Bytes.equal b4 b3)

(* A page's frame: the trailer's CRC must be the payload's, whatever
   the page size. The frame buffer is the page's own, reframed in place
   when the payload changes. *)
let test_frame_trailer_and_reuse () =
  let rng = Rng.create 7 in
  List.iter
    (fun k ->
      let p = { (params ()) with Params.fnt_page_sectors = k; fnt_pages = 32 } in
      let l = Layout.compute geom p in
      let s = Fnt_store.create_fresh (mk_device ()) l in
      let sb = geom.Geometry.sector_bytes in
      let page = Fnt_store.alloc s in
      let payload () = Bytes.init (Fnt_store.page_bytes s) (fun _ -> Char.chr (Rng.int rng 256)) in
      let p1 = payload () in
      Fnt_store.write s page p1;
      let u = Fnt_store.logged_unit s page in
      let what fmt = Printf.ksprintf (fun m -> Printf.sprintf "%d sectors: %s" k m) fmt in
      check int (what "image size") (k * sb) (Bytes.length u.Log.image);
      check int (what "trailer CRC is the payload's")
        (Crc32.bytes p1)
        (Int32.to_int (Bytes.get_int32_le u.Log.image (Bytes.length p1 + 8)) land 0xffffffff);
      check bool (what "payload unframes") true
        (Bytes.equal p1 (Bytes.sub u.Log.image 0 (Bytes.length p1)));
      let again = Fnt_store.logged_unit s page in
      check bool (what "unchanged payload, same frame") true (again.Log.image == u.Log.image);
      let p2 = payload () in
      Fnt_store.write s page p2;
      let u2 = Fnt_store.logged_unit s page in
      check bool (what "frame buffer reused") true (u2.Log.image == u.Log.image);
      check int (what "reframed trailer CRC")
        (Crc32.bytes p2)
        (Int32.to_int (Bytes.get_int32_le u2.Log.image (Bytes.length p2 + 8)) land 0xffffffff))
    [ 1; 2; 4; 16 ]

(* A page reframed in its own buffer must be exactly a fresh frame:
   nothing of the frame it overwrites may survive. After each of a
   seeded run of edits — none, one byte anywhere, one byte in the last
   sector's head, a byte either side of a sector boundary, or a whole
   new payload — the page is reframed and its image compared with the
   same payload framed by a store that never framed the page, and with
   the image that store writes home first (a home write of a payload
   never framed builds a fresh frame). *)
let test_reframe_matches_fresh_frame () =
  let rng = Rng.create 26 in
  List.iter
    (fun k ->
      let p = { (params ()) with Params.fnt_page_sectors = k; fnt_pages = 32 } in
      let l = Layout.compute geom p in
      let s = Fnt_store.create_fresh (mk_device ()) l in
      let sb = geom.Geometry.sector_bytes in
      let n = Fnt_store.page_bytes s in
      let page = Fnt_store.alloc s in
      let random () = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256)) in
      let poke b i = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255))) in
      let payload = ref (random ()) in
      for step = 1 to 150 do
        let b =
          match Rng.int rng 5 with
          | 4 -> random ()
          | edit ->
            let b = Bytes.copy !payload in
            (match edit with
            | 1 -> poke b (Rng.int rng n)
            | 2 -> poke b (((k - 1) * sb) + Rng.int rng (n - ((k - 1) * sb)))
            | 3 ->
              let edge = Rng.int rng k * sb in
              poke b (if edge = 0 || Rng.bool rng then edge else edge - 1)
            | _ -> ());
            b
        in
        payload := b;
        Fnt_store.write s page b;
        let u = Fnt_store.logged_unit s page in
        let d = mk_device () in
        let r = Fnt_store.create_fresh d l in
        Fnt_store.write r page b;
        ignore (Fnt_store.flush_all_dirty r : int);
        let plain = Device.read_run d ~sector:(Layout.fnt_sector_a l ~page) ~count:k in
        let fresh = Fnt_store.logged_unit r page in
        let what = Printf.sprintf "%d sectors, step %d" k step in
        check bool (what ^ ": image") true (Bytes.equal u.Log.image fresh.Log.image);
        check bool (what ^ ": plain frame") true (Bytes.equal u.Log.image plain)
      done)
    [ 1; 2; 4; 16 ]

(* A diverged page whose third is re-entered by the very append that logs
   its new payload: that append has just reframed the page's buffer with
   the new payload, but what goes home is the committed image. Log p1,
   write p2, append filler records until logging p2 re-enters p1's third,
   then log p2: both home copies must hold p1's frame. *)
let test_diverged_page_homes_committed_frame () =
  let device = mk_device () in
  let l = layout () in
  let s = Fnt_store.create_fresh device l in
  Fnt_store.flush_anchor s;
  Log.format device l;
  let log =
    Log.attach device l ~boot_count:1 ~next_record_no:1L ~write_off:0
      ~on_enter_third:(fun j -> ignore (Fnt_store.flush_third s j : int))
  in
  let force () =
    let pages = Fnt_store.pages_to_log s in
    let third = Log.append log (List.map (Fnt_store.logged_unit s) pages) in
    Fnt_store.mark_logged s pages ~third;
    third
  in
  let page = Fnt_store.alloc s in
  let p1 = page_payload s '1' and p2 = page_payload s '2' in
  Fnt_store.write s page p1;
  let t1 = force () in
  Fnt_store.write s page p2;
  let record_sectors = Log.record_total_sectors l [ Fnt_store.logged_unit s page ] in
  let fillers = ref 0 in
  while not (List.mem t1 (Log.thirds_entered_by log ~record_sectors)) do
    ignore
      (Log.append log
         [ { Log.kind = Log.Leader_page 5000; image = Bytes.make geom.Geometry.sector_bytes 'f' } ]
        : int);
    incr fillers
  done;
  check bool "fillers needed" true (!fillers > 0);
  check (Alcotest.option Alcotest.bytes) "not homed before" None
    (Fnt_store.try_read_home device l ~page);
  ignore (force () : int);
  let k = l.Layout.params.Params.fnt_page_sectors in
  let copy sector = Device.read_run device ~sector ~count:k in
  let a = copy (Layout.fnt_sector_a l ~page) and b = copy (Layout.fnt_sector_b l ~page) in
  check bool "copies agree" true (Bytes.equal a b);
  check (Alcotest.option Alcotest.bytes) "home holds the committed image" (Some p1)
    (Fnt_store.try_read_home device l ~page);
  check bool "new payload still to be homed" true (List.mem page (Fnt_store.dirty_pages s))

(* [flush_third ~budget:k] homes the k lowest pages that claim the third,
   and a second call with no budget the rest, in ascending order — the
   order of the [Fnt_write_twice] events. Pages written in neither order
   and pages of another third, which stay dirty, make both orders
   visible. *)
let test_store_flush_third_lowest_first () =
  let device, _, s = mk_store () in
  let tr = Device.trace device in
  Cedar_obs.Trace.enable tr;
  let pages = Array.init 8 (fun _ -> Fnt_store.alloc s) in
  let ours = List.map (Array.get pages) [ 6; 1; 4; 2; 7 ] in
  let others = List.map (Array.get pages) [ 3; 0; 5 ] in
  List.iter (fun p -> Fnt_store.write s p (page_payload s 'o')) (ours @ others);
  Fnt_store.mark_logged s ours ~third:1;
  Fnt_store.mark_logged s others ~third:2;
  let homed () =
    let order =
      List.filter_map
        (fun e ->
          match e.Cedar_obs.Trace.event with
          | Cedar_obs.Trace.Fnt_write_twice { page } -> Some page
          | _ -> None)
        (Cedar_obs.Trace.to_list tr)
    in
    Cedar_obs.Trace.clear tr;
    order
  in
  let sorted = List.sort compare ours in
  ignore (homed () : int list);
  check int "budget" 2 (Fnt_store.flush_third s 1 ~budget:2);
  check (Alcotest.list int) "the two lowest"
    (List.filteri (fun i _ -> i < 2) sorted)
    (homed ());
  check int "the rest" 3 (Fnt_store.flush_third s 1);
  check (Alcotest.list int) "the rest, ascending"
    (List.filteri (fun i _ -> i >= 2) sorted)
    (homed ());
  check int "nothing left in the third" 0 (Fnt_store.flush_third s 1);
  List.iter
    (fun p ->
      check bool "another third's page stays dirty" true
        (List.mem p (Fnt_store.dirty_pages s)))
    others

(* The twin-copy read's five outcomes, through the scrub (which reads
   both copies, bypassing the cache), a cache miss of a freshly attached
   store and the scavenger's probe: the scrub and the miss read copy A
   then copy B, two commands, and rewrite only a lone bad copy, or B
   when both check but differ; the probe stops at a good copy A. Copies
   that differ only in the trailer's last word, which no check reads,
   agree. *)
let test_store_twin_read_outcomes () =
  let l = layout () in
  let page = 3 in
  let k = l.Layout.params.Params.fnt_page_sectors in
  let payload_bytes = (k * geom.Geometry.sector_bytes) - Meta_frame.trailer_bytes in
  let frame c =
    Meta_frame.frame ~magic:0x464e5431 (* "FNT1" *) ~page (Bytes.make payload_bytes c)
  in
  let bad = frame 'x' in
  Bytes.set bad 7 'y' (* the trailer's CRC no longer matches *);
  let unchecked = frame 'p' in
  Bytes.set unchecked (Bytes.length unchecked - 1) '\001';
  let sa = Layout.fnt_sector_a l ~page and sb = Layout.fnt_sector_b l ~page in
  let cases =
    [
      ("identical good copies", `Frame (frame 'p'), `Frame (frame 'p'), `Ok, Some 'p', None);
      ("identical bad copies", `Frame bad, `Frame bad, `Unreadable, None, None);
      ("copy A bad", `Frame bad, `Frame (frame 'p'), `Repaired, Some 'p', Some sa);
      ("copy B unreadable", `Frame (frame 'p'), `Damaged, `Repaired, Some 'p', Some sb);
      ("good copies differ", `Frame (frame 'p'), `Frame (frame 'q'), `Repaired, Some 'p', Some sb);
      ("copies differ in the unchecked word", `Frame (frame 'p'), `Frame unchecked, `Ok, Some 'p', None);
    ]
  in
  let setup (a, b) =
    let device = mk_device () in
    let s = Fnt_store.create_fresh device l in
    Fnt_store.flush_anchor s;
    List.iter
      (fun (sector, copy) ->
        match copy with
        | `Frame image -> Device.write_run device ~sector image
        | `Damaged -> Device.damage device sector)
      [ (sa, a); (sb, b) ];
    device
  in
  let io device f =
    let st = Device.stats device in
    let reads = st.Iostats.reads and writes = st.Iostats.writes in
    let v = f () in
    (v, st.Iostats.reads - reads, st.Iostats.writes - writes)
  in
  let payload = function
    | Some c -> Some (Bytes.make payload_bytes c)
    | None -> None
  in
  List.iter
    (fun (what, a, b, scrubbed, want, rewritten) ->
      let name s = what ^ ": " ^ s in
      let device = setup (a, b) in
      let s = Fnt_store.attach device l in
      let got, reads, writes = io device (fun () -> Fnt_store.scrub_page s page) in
      check bool (name "scrub outcome") true (got = scrubbed);
      check int (name "scrub reads") 2 reads;
      check int (name "scrub writes") (if rewritten = None then 0 else 1) writes;
      Option.iter
        (fun sector ->
          check bool (name "rewritten copy holds the good frame") true
            (Bytes.equal (frame 'p') (Device.read_run device ~sector ~count:k)))
        rewritten;
      let device = setup (a, b) in
      let s = Fnt_store.attach device l in
      let got, reads, writes =
        io device (fun () ->
            match Fnt_store.read s page with
            | p -> Some p
            | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata _) -> None)
      in
      check (Alcotest.option Alcotest.bytes) (name "read payload") (payload want) got;
      check int (name "read reads") 2 reads;
      check int (name "read writes") (if rewritten = None then 0 else 1) writes;
      let device = setup (a, b) in
      let got, reads, _ = io device (fun () -> Fnt_store.try_read_home device l ~page) in
      check (Alcotest.option Alcotest.bytes) (name "probe payload") (payload want) got;
      check int (name "probe reads") (if a = `Frame (frame 'p') then 1 else 2) reads)
    cases

(* [pages_to_log_count] is the O(1) count the commit demon polls; it
   must equal [List.length (pages_to_log s)] after any sequence of the
   operations that change a page's dirty or modified flag, on a cache
   small enough to evict. *)
let test_store_to_log_count_exact () =
  let _, _, s = mk_store ~cache_pages:8 () in
  let rng = Rng.create 42 in
  let live = ref [] in
  let pick () = List.nth !live (Rng.int rng (List.length !live)) in
  for step = 1 to 3000 do
    (match Rng.int rng 9 with
    | 0 when List.length !live < 24 ->
      let p = Fnt_store.alloc s in
      live := p :: !live;
      Fnt_store.write s p (page_payload s 'w')
    | (0 | 1) when !live <> [] ->
      Fnt_store.write s (pick ()) (page_payload s (Char.chr (Rng.int rng 256)))
    | 2 when !live <> [] ->
      let p = pick () in
      live := List.filter (fun q -> q <> p) !live;
      Fnt_store.free s p
    | 3 when !live <> [] -> ignore (Fnt_store.read s (pick ()) : bytes)
    | 4 -> Fnt_store.mark_logged s (Fnt_store.pages_to_log s) ~third:(Rng.int rng 3)
    | 5 ->
      ignore (Fnt_store.flush_third s (Rng.int rng 3) ~budget:(1 + Rng.int rng 4) : int)
    | 6 -> ignore (Fnt_store.flush_third s (Rng.int rng 3) : int)
    | 7 -> if Rng.int rng 8 = 0 then ignore (Fnt_store.flush_all_dirty s : int)
    | _ -> Fnt_store.drop_clean_cache s);
    check int
      (Printf.sprintf "count after step %d" step)
      (List.length (Fnt_store.pages_to_log s))
      (Fnt_store.pages_to_log_count s)
  done

let suite =
  [
    ("params: defaults valid", `Quick, test_params_default_valid);
    ("params: tiny log rejected", `Quick, test_params_rejects_tiny_log);
    ("params: huge metadata rejected", `Quick, test_params_rejects_huge_metadata);
    ("layout: regions partition the disk", `Quick, test_layout_regions_disjoint);
    ("layout: FNT copies separated by the log", `Quick, test_layout_fnt_copies_disjoint_and_far);
    ("layout: data-sector predicate", `Quick, test_layout_data_sector_predicate);
    ("vam: alloc/release", `Quick, test_vam_alloc_release);
    ("vam: shadow commit", `Quick, test_vam_shadow_commit);
    ("vam: shadow double free rejected", `Quick, test_vam_shadow_double_free);
    ("vam: a failed release frees nothing", `Quick, test_vam_failed_release_frees_nothing);
    ("vam: save/load roundtrip", `Quick, test_vam_save_load_roundtrip);
    ("vam: damaged save rejected", `Quick, test_vam_load_rejects_damage);
    ("alloc: small files low", `Quick, test_alloc_small_in_small_area);
    ("alloc: big files from the top", `Quick, test_alloc_big_from_top);
    ("alloc: areas are only hints", `Quick, test_alloc_spills_to_other_area);
    ("alloc: volume full", `Quick, test_alloc_volume_full);
    ("alloc: fragments when needed", `Quick, test_alloc_fragments_when_needed);
    ("alloc: a failed allocation takes nothing", `Quick, test_alloc_failure_takes_nothing);
    ("leader: roundtrip + matches", `Quick, test_leader_roundtrip);
    ("leader: mismatch detected", `Quick, test_leader_mismatch_detected);
    ("leader: garbage rejected", `Quick, test_leader_garbage_rejected);
    ("boot page: roundtrip + replica", `Quick, test_boot_page_roundtrip);
    ("store: writes cached, not on disk", `Quick, test_store_write_is_cached_not_on_disk);
    ("store: flush writes both copies", `Quick, test_store_flush_writes_both_copies);
    ("store: bad copy repaired on read", `Quick, test_store_repairs_bad_copy);
    ("store: both copies bad raises", `Quick, test_store_both_copies_bad_raises);
    ("store: modified-since-log tracking", `Quick, test_store_modified_tracking);
    ("store: uid/anchor persist", `Quick, test_store_uid_and_anchor_persist);
    ("store: freed page reusable", `Quick, test_store_free_page_reusable);
    ("store: read hands out the cached bytes", `Quick, test_store_read_identity);
    ("store: to-log count is exact", `Quick, test_store_to_log_count_exact);
    ("store: twin read outcomes and device reads", `Quick, test_store_twin_read_outcomes);
    ("store: frame trailer CRC, frame buffer reused", `Quick, test_frame_trailer_and_reuse);
    ("store: reframed page equals a fresh frame", `Quick, test_reframe_matches_fresh_frame);
    ("store: flush_third homes the lowest pages first", `Quick,
      test_store_flush_third_lowest_first);
    ("store: diverged page homes its committed frame", `Quick,
      test_diverged_page_homes_committed_frame);
  ]
