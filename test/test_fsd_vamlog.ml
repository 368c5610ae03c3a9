(* Tests for the VAM-logging extension (the alternative §5.3 weighs:
   "VAM logging would greatly decrease worst case crash recovery time
   ... about two seconds"). With [Params.log_vam], allocation-map chunks
   ride in the group-commit records and recovery rebuilds the map from
   the saved base plus the log, skipping the name-table scan. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let params ?(log_vam = true) geom = { (Params.for_geometry geom) with Params.log_vam }

let fresh ?(geom = Geometry.small_test) ?(log_vam = true) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let p = params ~log_vam geom in
  Fsd.format device p;
  let fs, _ = Fsd.boot ~params:p device in
  (device, p, fs)

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let test_crash_recovery_replays_vam () =
  let device, p, fs = fresh () in
  for i = 0 to 29 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "v/f%02d" i) (content ((i * 83) mod 1700) i))
  done;
  Fsd.force fs;
  let tracked = Fsd.free_sectors fs in
  (* crash *)
  let fs2, report = Fsd.boot ~params:p device in
  check bool "vam replayed, not reconstructed" true
    (report.Fsd.vam_source = Fsd.Vam_replayed);
  check int "free count exact" tracked (Fsd.free_sectors fs2);
  check bool "check" true (Fsd.check fs2 = Ok ())

let test_replay_much_faster_than_reconstruct () =
  let measure log_vam =
    let device, p, fs = fresh ~log_vam () in
    for i = 0 to 199 do
      ignore (Fsd.create fs ~name:(Printf.sprintf "t/f%03d" i) (content 900 i))
    done;
    Fsd.force fs;
    let _, report = Fsd.boot ~params:p device in
    (report.Fsd.vam_source, report.Fsd.vam_us)
  in
  let src_on, us_on = measure true in
  let src_off, us_off = measure false in
  check bool "on: replayed" true (src_on = Fsd.Vam_replayed);
  check bool "off: reconstructed" true (src_off = Fsd.Vam_reconstructed);
  check bool
    (Printf.sprintf "replay (%d us) at least 3x faster than rebuild (%d us)" us_on us_off)
    true
    (us_on * 3 < us_off)

let test_committed_delete_frees_pages_via_log () =
  let device, p, fs = fresh () in
  ignore (Fsd.create fs ~name:"gone" (content 1500 1));
  Fsd.force fs;
  Fsd.delete fs ~name:"gone";
  Fsd.force fs;
  let tracked = Fsd.free_sectors fs in
  let fs2, report = Fsd.boot ~params:p device in
  check bool "replayed" true (report.Fsd.vam_source = Fsd.Vam_replayed);
  check int "freed pages recovered as free" tracked (Fsd.free_sectors fs2)

let test_uncommitted_create_pages_leak_safely () =
  (* The replayed map reflects the last commit: an uncommitted create's
     pages stay marked allocated (a safe leak, never a double use). *)
  let device, p, fs = fresh () in
  ignore (Fsd.create fs ~name:"base" (content 500 1));
  Fsd.force fs;
  let committed_free = Fsd.free_sectors fs in
  ignore (Fsd.create fs ~name:"phantom" (content 500 2));
  let fs2, report = Fsd.boot ~params:p device in
  check bool "replayed" true (report.Fsd.vam_source = Fsd.Vam_replayed);
  check bool "phantom gone" false (Fsd.exists fs2 ~name:"phantom");
  check int "map as of last commit" committed_free (Fsd.free_sectors fs2);
  (* no double allocation is possible: every free sector really is free *)
  check bool "check" true (Fsd.check fs2 = Ok ())

let test_mode_mismatch_reconstructs () =
  (* Volume last ran with VAM logging; booting without it must not trust
     the log-based base. *)
  let device, _, fs = fresh ~log_vam:true () in
  ignore (Fsd.create fs ~name:"x" (content 100 0));
  Fsd.force fs;
  let p_off = params ~log_vam:false Geometry.small_test in
  let _, report = Fsd.boot ~params:p_off device in
  check bool "reconstructed on mismatch" true
    (report.Fsd.vam_source = Fsd.Vam_reconstructed);
  (* And the other direction: snapshot base under a log_vam boot. *)
  let device2, _, fs2 = fresh ~log_vam:false () in
  ignore (Fsd.create fs2 ~name:"y" (content 100 0));
  Fsd.shutdown fs2;
  let p_on = params ~log_vam:true Geometry.small_test in
  let _, report2 = Fsd.boot ~params:p_on device2 in
  check bool "snapshot base not replayed" true
    (report2.Fsd.vam_source = Fsd.Vam_reconstructed)

let test_survives_log_wrap () =
  (* Chunk images whose third is about to be overwritten must be folded
     into the overwriting record; after many cycles the replayed map is
     still exact. *)
  let device, p, fs = fresh ~geom:Geometry.small_test () in
  for round = 0 to 400 do
    let name = Printf.sprintf "w/r%04d" round in
    ignore (Fsd.create fs ~name ~keep:1 (content 600 round));
    if round mod 3 = 0 && round > 0 then
      Fsd.delete fs ~name:(Printf.sprintf "w/r%04d" (round - 1));
    Fsd.tick fs ~us:120_000
  done;
  Fsd.force fs;
  check bool "log wrapped at least once" true ((Fsd.log_stats fs).Log.third_entries > 3);
  let tracked = Fsd.free_sectors fs in
  let fs2, report = Fsd.boot ~params:p device in
  check bool "replayed after wraps" true (report.Fsd.vam_source = Fsd.Vam_replayed);
  check int "map exact after wraps" tracked (Fsd.free_sectors fs2);
  check bool "check" true (Fsd.check fs2 = Ok ())

let test_clean_shutdown_roundtrip () =
  let device, p, fs = fresh () in
  ignore (Fsd.create fs ~name:"s" (content 3333 3));
  Fsd.shutdown fs;
  let fs2, report = Fsd.boot ~params:p device in
  check bool "base replayed (nothing in the log)" true
    (report.Fsd.vam_source = Fsd.Vam_replayed);
  check int "no records" 0 report.Fsd.replayed_records;
  check bool "content" true (Bytes.equal (content 3333 3) (Fsd.read_all fs2 ~name:"s"))

let test_torn_commit_keeps_map_consistent () =
  let device, p, fs = fresh () in
  ignore (Fsd.create fs ~name:"pre" (content 400 1));
  Fsd.force fs;
  let committed_free = Fsd.free_sectors fs in
  ignore (Fsd.create fs ~name:"mid" (content 400 2));
  Device.plan_write_crash device ~after_sectors:4 ~damage_tail:2;
  (match Fsd.force fs with
  | () -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write _ -> ());
  let fs2, report = Fsd.boot ~params:p device in
  check bool "replayed" true (report.Fsd.vam_source = Fsd.Vam_replayed);
  check bool "mid gone" false (Fsd.exists fs2 ~name:"mid");
  check int "map matches the surviving commit" committed_free (Fsd.free_sectors fs2)

(* Property: random workload + crash, the replayed map always equals a
   reconstruction from the same name table. *)
let prop_replayed_equals_reconstructed =
  QCheck.Test.make ~name:"replayed VAM equals reconstructed VAM" ~count:15
    QCheck.(pair (int_bound 5_000) (int_range 5 40))
    (fun (seed, nops) ->
      let geom = Geometry.tiny_test in
      let clock = Simclock.create () in
      let device = Device.create ~clock geom in
      let p = params ~log_vam:true geom in
      Fsd.format device p;
      let fs = ref (fst (Fsd.boot ~params:p device)) in
      let rng = Rng.create (seed + 3) in
      (try
         for i = 0 to nops - 1 do
           let name = Printf.sprintf "p/%d" (Rng.int rng 8) in
           (match Rng.int rng 4 with
           | 0 | 1 ->
             ignore (Fsd.create !fs ~name ~keep:1 (content (Rng.int rng 1200) i))
           | 2 -> if Fsd.exists !fs ~name then Fsd.delete !fs ~name
           | _ -> Fsd.tick !fs ~us:100_000);
           if Rng.chance rng 0.15 then begin
             Fsd.force !fs;
             fs := fst (Fsd.boot ~params:p device)
           end
         done
       with Fs_error.Fs_error Fs_error.Volume_full -> ());
      Fsd.force !fs;
      (* crash, then compare the replayed map against a from-scratch
         reconstruction on the same device state *)
      let fs_replayed, r1 = Fsd.boot ~params:p device in
      let free_replayed = Fsd.free_sectors fs_replayed in
      ignore fs_replayed;
      let p_off = { p with Params.log_vam = false } in
      let fs_rebuilt, r2 = Fsd.boot ~params:p_off device in
      let free_rebuilt = Fsd.free_sectors fs_rebuilt in
      r1.Fsd.vam_source = Fsd.Vam_replayed
      && r2.Fsd.vam_source = Fsd.Vam_reconstructed
      && free_replayed = free_rebuilt)

(* The §3 whole-track extension, end to end: crash, then lose a whole
   track inside the log; the committed state still recovers. *)
let test_track_tolerant_fs_end_to_end () =
  let geom = Geometry.small_test in
  let p = { (Params.for_geometry geom) with Params.track_tolerant_log = true } in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device p;
  let fs, _ = Fsd.boot ~params:p device in
  for i = 0 to 19 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "tt/f%02d" i) (content 800 i))
  done;
  Fsd.force fs;
  (* lose an entire track in the middle of the log body *)
  let layout = Fsd.layout fs in
  let spt = geom.Geometry.sectors_per_track in
  let track_start = (layout.Layout.log_start + 3 + spt) / spt * spt in
  for k = 0 to spt - 1 do
    Device.damage device (track_start + k)
  done;
  let fs2, report = Fsd.boot ~params:p device in
  check bool "records replayed despite track loss" true (report.Fsd.replayed_records > 0);
  for i = 0 to 19 do
    let name = Printf.sprintf "tt/f%02d" i in
    check bool (name ^ " intact") true (Bytes.equal (content 800 i) (Fsd.read_all fs2 ~name))
  done;
  check bool "check" true (Fsd.check fs2 = Ok ())

(* Both extensions together, under the crash sweep workload. *)
let test_both_extensions_together () =
  let geom = Geometry.small_test in
  let p =
    {
      (Params.for_geometry geom) with
      Params.log_vam = true;
      track_tolerant_log = true;
    }
  in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device p;
  let fs = ref (fst (Fsd.boot ~params:p device)) in
  for round = 0 to 60 do
    ignore (Fsd.create !fs ~name:(Printf.sprintf "duo/%03d" round) ~keep:1 (content 700 round));
    if round mod 4 = 0 then Fsd.force !fs;
    if round mod 15 = 14 then begin
      (* crash and also lose a whole track of the log *)
      let layout = Fsd.layout !fs in
      let spt = geom.Geometry.sectors_per_track in
      let track = (layout.Layout.log_start + 3 + (2 * spt)) / spt * spt in
      for k = 0 to spt - 1 do
        Device.damage device (track + k)
      done;
      let fs2, report = Fsd.boot ~params:p device in
      check bool
        (Printf.sprintf "round %d: vam replayed" round)
        true
        (report.Fsd.vam_source = Fsd.Vam_replayed);
      (match Fsd.check fs2 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "round %d: %s" round m);
      fs := fs2
    end
  done

(* Each chunk image is its slice of the packed map, read without
   copying the whole map; the last chunk, which the map only partly
   fills on this geometry, is zero-padded. *)
let test_chunk_images_are_map_slices () =
  let geom = Geometry.small_test in
  let layout = Layout.compute geom (params geom) in
  let vam = Vam.create_all_free layout in
  (* Scattered runs over both areas, some freed again at once and some
     through the shadow, so chunks hold a mix of bits. *)
  let scatter lo hi =
    let rec go pos k =
      if pos + 12 <= hi then begin
        let len = 1 + (k mod 12) in
        Vam.allocate_run vam ~pos ~len;
        (match k mod 3 with
        | 0 -> Vam.release_run vam ~pos ~len
        | 1 -> Vam.shadow_release_run vam ~pos ~len
        | _ -> ());
        go (pos + 29) (k + 1)
      end
    in
    go lo 0
  in
  scatter layout.Layout.small_lo layout.Layout.small_hi;
  scatter layout.Layout.big_lo layout.Layout.big_hi;
  Vam.commit_shadow vam;
  let total = Geometry.total_sectors geom in
  let reference = Bitmap.create total in
  for s = 0 to total - 1 do
    if Vam.is_free vam s then Bitmap.set reference s
  done;
  let packed = Bitmap.to_bytes reference in
  let cb = geom.Geometry.sector_bytes in
  let chunks = Vam.chunk_count vam in
  check bool "last chunk is partial" true (Bytes.length packed < chunks * cb);
  for c = 0 to chunks - 1 do
    let off = c * cb in
    let expected = Bytes.make cb '\000' in
    Bytes.blit packed off expected 0 (min cb (Bytes.length packed - off));
    check Alcotest.string (Printf.sprintf "chunk %d" c) (Bytes.to_string expected)
      (Bytes.to_string (Vam.chunk_image vam c))
  done

let suite =
  [
    ("crash recovery replays the VAM", `Quick, test_crash_recovery_replays_vam);
    ("replay much faster than reconstruct", `Quick, test_replay_much_faster_than_reconstruct);
    ("committed delete frees via log", `Quick, test_committed_delete_frees_pages_via_log);
    ("uncommitted create leaks safely", `Quick, test_uncommitted_create_pages_leak_safely);
    ("mode mismatch reconstructs", `Quick, test_mode_mismatch_reconstructs);
    ("survives log wrap", `Quick, test_survives_log_wrap);
    ("clean shutdown roundtrip", `Quick, test_clean_shutdown_roundtrip);
    ("torn commit keeps map consistent", `Quick, test_torn_commit_keeps_map_consistent);
    QCheck_alcotest.to_alcotest prop_replayed_equals_reconstructed;
    ("track-tolerant log end to end", `Quick, test_track_tolerant_fs_end_to_end);
    ("both extensions together", `Quick, test_both_extensions_together);
    ("chunk images are map slices", `Quick, test_chunk_images_are_map_slices);
  ]
