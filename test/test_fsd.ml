(* File-system-level tests for FSD: lifecycle, versions, group commit,
   crash recovery, robustness. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

(* An FSD counter, read from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_volume ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params = Params.for_geometry geom in
  Fsd.format device params;
  device

let boot_fs device = fst (Fsd.boot device)

let fresh_fs ?geom () =
  let device = fresh_volume ?geom () in
  (device, boot_fs device)

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let expect_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Fs_error"
  | exception Fs_error.Fs_error e ->
    if not (expected e) then
      Alcotest.fail ("unexpected error: " ^ Fs_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Basic lifecycle                                                     *)

let test_create_read_roundtrip () =
  let _, fs = fresh_fs () in
  let data = content 1800 7 in
  let info = Fsd.create fs ~name:"hello.mesa" data in
  check int "version 1" 1 info.Fs_ops.version;
  check int "byte size" 1800 info.Fs_ops.byte_size;
  check bool "roundtrip" true (Bytes.equal data (Fsd.read_all fs ~name:"hello.mesa"));
  check bool "exists" true (Fsd.exists fs ~name:"hello.mesa");
  check bool "absent" false (Fsd.exists fs ~name:"other.mesa")

let test_empty_file () =
  let _, fs = fresh_fs () in
  let info = Fsd.create fs ~name:"empty" (Bytes.create 0) in
  check int "zero bytes" 0 info.Fs_ops.byte_size;
  check int "read empty" 0 (Bytes.length (Fsd.read_all fs ~name:"empty"))

let test_read_page () =
  let device, fs = fresh_fs () in
  let data = content (3 * 512) 1 in
  ignore (Fsd.create fs ~name:"three" data);
  let p1 = Fsd.read_page fs ~name:"three" ~page:1 in
  check bool "page 1 content" true (Bytes.equal p1 (Bytes.sub data 512 512));
  expect_error
    (function Fs_error.Bad_page _ -> true | _ -> false)
    (fun () -> Fsd.read_page fs ~name:"three" ~page:3);
  (* Cold, a page other than 0 cannot ride the leader's transfer: the
     leader is verified by a read of its own. *)
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "cold page 2 content" true
    (Bytes.equal (Fsd.read_page fs2 ~name:"three" ~page:2) (Bytes.sub data 1024 512))

let test_missing_file_errors () =
  let _, fs = fresh_fs () in
  expect_error
    (function Fs_error.No_such_file _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs ~name:"ghost");
  expect_error
    (function Fs_error.Bad_name _ -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:"bad!name" (Bytes.create 1))

let test_versions_and_keep () =
  let _, fs = fresh_fs () in
  for v = 1 to 5 do
    let info = Fsd.create fs ~name:"prog" ~keep:3 (content 100 v) in
    check int "version increments" v info.Fs_ops.version
  done;
  (* keep=3: only versions 3,4,5 remain. *)
  check (Alcotest.list int) "kept versions" [ 3; 4; 5 ] (Fsd.versions fs ~name:"prog");
  (* reading gets the newest *)
  check bool "newest content" true
    (Bytes.equal (content 100 5) (Fsd.read_all fs ~name:"prog"))

let test_delete () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"a" ~keep:0 (content 10 0));
  ignore (Fsd.create fs ~name:"a" ~keep:0 (content 10 1));
  Fsd.delete fs ~name:"a";
  check (Alcotest.list int) "older version remains" [ 1 ] (Fsd.versions fs ~name:"a");
  Fsd.delete fs ~name:"a";
  check bool "gone" false (Fsd.exists fs ~name:"a");
  expect_error
    (function Fs_error.No_such_file _ -> true | _ -> false)
    (fun () -> Fsd.delete fs ~name:"a")

let test_list () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"src/a.mesa" (content 10 0));
  ignore (Fsd.create fs ~name:"src/b.mesa" (content 20 0));
  ignore (Fsd.create fs ~name:"src/b.mesa" (content 30 0));
  ignore (Fsd.create fs ~name:"doc/readme" (content 40 0));
  let names l = List.map (fun i -> (i.Fs_ops.name, i.Fs_ops.version)) l in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "prefix list newest versions"
    [ ("src/a.mesa", 1); ("src/b.mesa", 2) ]
    (names (Fsd.list fs ~prefix:"src/"));
  check int "all files" 3 (List.length (Fsd.list fs ~prefix:""))

let test_symlink () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"real" (content 77 1));
  Fsd.create_symlink fs ~name:"link" ~target:"real";
  check (Alcotest.option Alcotest.string) "readlink" (Some "real")
    (Fsd.readlink fs ~name:"link");
  check bool "read through link" true
    (Bytes.equal (content 77 1) (Fsd.read_all fs ~name:"link"));
  (* Symlink loop detection *)
  Fsd.create_symlink fs ~name:"loop1" ~target:"loop2";
  Fsd.create_symlink fs ~name:"loop2" ~target:"loop1";
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs ~name:"loop1")

let test_inspect_report () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"ins/a" (content 600 1));
  Fsd.create_symlink fs ~name:"ins/l" ~target:"ins/a";
  ignore (Fsd.import_cached fs ~name:"ins/c" ~server:"ivy" (content 300 2));
  Fsd.force fs;
  let report = Inspect.volume_report fs in
  let has sub =
    let n = String.length sub and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = sub || go (i + 1)) in
    go 0
  in
  check bool "mentions entries" true (has "1 local, 1 symlinks, 1 cached");
  check bool "mentions records" true (has "surviving records");
  check bool "mentions free sectors" true (has "free sectors")

let test_cached_last_used () =
  let _, fs = fresh_fs () in
  ignore (Fsd.import_cached fs ~name:"rem/cache.bcd" ~server:"ivy" (content 200 4));
  let t0 = Option.get (Fsd.last_used fs ~name:"rem/cache.bcd") in
  Fsd.tick fs ~us:10_000;
  Fsd.touch_cached fs ~name:"rem/cache.bcd";
  let t1 = Option.get (Fsd.last_used fs ~name:"rem/cache.bcd") in
  check bool "last used advanced" true (t1 > t0);
  check bool "content intact" true
    (Bytes.equal (content 200 4) (Fsd.read_all fs ~name:"rem/cache.bcd"))

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let test_clean_shutdown_reboot () =
  let device, fs = fresh_fs () in
  let data = content 3000 5 in
  ignore (Fsd.create fs ~name:"persist.df" data);
  Fsd.shutdown fs;
  let fs2, report = Fsd.boot device in
  check bool "vam loaded from clean save" true (report.Fsd.vam_source = Fsd.Vam_loaded);
  check bool "content after reboot" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"persist.df"));
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_ops_after_shutdown_rejected () =
  let _, fs = fresh_fs () in
  Fsd.shutdown fs;
  expect_error
    (function Fs_error.Not_booted -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:"x" (Bytes.create 1))

let test_crash_committed_survives () =
  let device, fs = fresh_fs () in
  let data = content 900 6 in
  ignore (Fsd.create fs ~name:"committed" data);
  Fsd.force fs;
  (* Crash: drop the instance without shutdown. *)
  let fs2, report = Fsd.boot device in
  check bool "vam reconstructed" true (report.Fsd.vam_source = Fsd.Vam_reconstructed);
  check bool "replayed something" true (report.Fsd.replayed_records >= 1);
  check bool "committed file present" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"committed"));
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_crash_uncommitted_lost_cleanly () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"survivor" (content 100 1));
  Fsd.force fs;
  let free_committed = Fsd.free_sectors fs in
  (* This create is never committed. *)
  ignore (Fsd.create fs ~name:"phantom" (content 100 2));
  let fs2, _ = Fsd.boot device in
  check bool "survivor present" true (Fsd.exists fs2 ~name:"survivor");
  check bool "phantom gone" false (Fsd.exists fs2 ~name:"phantom");
  (* Its pages were reclaimed by the VAM rebuild. *)
  check int "space reclaimed" free_committed (Fsd.free_sectors fs2);
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_crash_uncommitted_delete_keeps_file () =
  let device, fs = fresh_fs () in
  let data = content 700 3 in
  ignore (Fsd.create fs ~name:"keepme" data);
  Fsd.force fs;
  Fsd.delete fs ~name:"keepme";
  (* crash before the delete commits *)
  let fs2, _ = Fsd.boot device in
  check bool "file still there" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"keepme"))

let test_crash_committed_delete_stays_deleted () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"doomed" (content 700 3));
  Fsd.force fs;
  let free_before_delete = Fsd.free_sectors fs in
  Fsd.delete fs ~name:"doomed";
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "stays deleted" false (Fsd.exists fs2 ~name:"doomed");
  check bool "space reclaimed after reboot" true
    (Fsd.free_sectors fs2 > free_before_delete)

let test_group_commit_interval () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"f1" (content 10 0));
  let before = fsd_count fs "forces" in
  (* Half a second of idle time fires the commit demon. *)
  Fsd.tick fs ~us:600_000;
  check int "force fired" (before + 1) (fsd_count fs "forces");
  (* Idle ticks with nothing pending count as empty forces. *)
  Fsd.tick fs ~us:600_000;
  check bool "empty force" true (fsd_count fs "empty_forces" >= 1)

let test_torn_group_commit () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"safe" (content 300 1));
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"halfway" (content 300 2));
  (* Crash in the middle of the log record of this force. *)
  Device.plan_write_crash device ~after_sectors:4 ~damage_tail:2;
  (match Fsd.force fs with
  | () -> Alcotest.fail "expected crash during force"
  | exception Device.Crash_during_write _ -> ());
  let fs2, _ = Fsd.boot device in
  check bool "earlier commit survived" true (Fsd.exists fs2 ~name:"safe");
  check bool "torn commit discarded" false (Fsd.exists fs2 ~name:"halfway");
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_repeated_crashes () =
  let device, fs = fresh_fs () in
  let fs = ref fs in
  for round = 1 to 6 do
    let name = Printf.sprintf "round-%d" round in
    ignore (Fsd.create !fs ~name (content 256 round));
    Fsd.force !fs;
    (* crash and reboot *)
    let fs2, _ = Fsd.boot device in
    fs := fs2;
    for earlier = 1 to round do
      let name = Printf.sprintf "round-%d" earlier in
      check bool (name ^ " survived") true
        (Bytes.equal (content 256 earlier) (Fsd.read_all !fs ~name))
    done
  done;
  check bool "final check" true (Fsd.check !fs = Ok ())

(* ------------------------------------------------------------------ *)
(* Robustness against sector damage                                    *)

let test_fnt_copy_damage_repaired () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"important" (content 2000 8));
  Fsd.shutdown fs;
  (* Cycle once more so the log holds no records that would heal the
     damage during replay; we want the read path to do the repairing. *)
  let fs1 = boot_fs device in
  Fsd.shutdown fs1;
  let layout = Fsd.layout fs1 in
  for s = layout.Layout.fnt_a_start to layout.Layout.fnt_a_start + 40 do
    Device.damage device s
  done;
  let fs2, report = Fsd.boot device in
  check int "nothing replayed" 0 report.Fsd.replayed_records;
  check bool "file readable from copy B" true
    (Bytes.equal (content 2000 8) (Fsd.read_all fs2 ~name:"important"));
  check bool "repairs recorded" true (Fsd.fnt_repairs fs2 > 0)

let test_boot_page_replica () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"x" (content 10 0));
  Fsd.shutdown fs;
  Device.damage device 0;
  let fs2, _ = Fsd.boot device in
  check bool "booted from replica" true (Fsd.exists fs2 ~name:"x")

let test_data_damage_isolated_to_file () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"victim" (content 1024 1));
  let other = content 1024 2 in
  ignore (Fsd.create fs ~name:"bystander" other);
  let info = Fsd.open_stat fs ~name:"victim" in
  ignore info;
  (* Find the victim's data sector by reading page 0's sector via layout:
     damage both its pages. *)
  Fsd.force fs;
  (* locate via read then damage: simplest is to damage through the
     device observer; instead use the entry's run table via check: read
     page 0, then damage the sector it came from. *)
  let seen = ref (-1) in
  Device.set_observer device
    (Some (fun ~rw ~sector ~count:_ -> if rw = `R && !seen < 0 then seen := sector));
  ignore (Fsd.read_page fs ~name:"victim" ~page:0);
  Device.set_observer device None;
  check bool "observed a read" true (!seen >= 0);
  (* the observed read may have started at the leader (piggyback) *)
  Device.damage device !seen;
  Device.damage device (!seen + 1);
  expect_error
    (function Fs_error.Damaged_data _ -> true | _ -> false)
    (fun () ->
      Fsd.drop_caches fs;
      (* force re-read from disk: new boot clears the verified set *)
      ignore (Fsd.read_page fs ~name:"victim" ~page:0);
      ignore (Fsd.read_all fs ~name:"victim"));
  (* The bystander and the volume structure are unaffected. *)
  check bool "bystander fine" true (Bytes.equal other (Fsd.read_all fs ~name:"bystander"))

module B = Cedar_btree.Btree.Make (Fnt_store)

(* An entry that claims a byte size its file's pages cannot hold —
   5,000 or 100 bytes for a 1,000-byte file of two pages — written
   with its leader straight into the shut-down volume's name table:
   [read_all] must refuse it with [Corrupt_metadata] — not fail inside
   [Bytes.sub], nor return the first 100 bytes as if they were the
   file — and [Fsd.check] must name it. The other file still reads
   back. *)
let test_size_not_fitting_pages_refused () =
  List.iter
    (fun claim ->
      let what s = Printf.sprintf "%d bytes claimed: %s" claim s in
      let device, fs = fresh_fs () in
      ignore (Fsd.create fs ~name:"size/f" (content 1000 1));
      ignore (Fsd.create fs ~name:"size/g" (content 700 2));
      Fsd.shutdown fs;
      let store = Fnt_store.attach device (Fsd.layout fs) in
      let tree = B.attach store in
      let key = Fname.key ~name:"size/f" ~version:1 in
      let e = Entry.decode (Option.get (B.find tree key)) in
      let e = { e with Entry.byte_size = claim } in
      B.insert tree ~key ~value:(Entry.encode e);
      ignore (Fnt_store.flush_all_dirty store : int);
      Device.write device e.Entry.anchor
        (Leader.encode
           (Leader.of_entry ~name:"size/f" ~version:1 e)
           ~sector_bytes:(Device.geometry device).Geometry.sector_bytes);
      let fs2 = boot_fs device in
      expect_error
        (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
        (fun () -> Fsd.read_all fs2 ~name:"size/f");
      check bool (what "the other file reads back") true
        (Bytes.equal (content 700 2) (Fsd.read_all fs2 ~name:"size/g"));
      match Fsd.check fs2 with
      | Ok () -> Alcotest.fail (what "check passed")
      | Error m ->
        let want =
          Printf.sprintf "size/f!000001: byte size %d does not fit its 2 data pages" claim
        in
        check Alcotest.string (what "check names the entry") want m)
    [ 5000; 100 ]

let test_leader_detects_wild_write () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"target" (content 512 1));
  Fsd.shutdown fs;
  let fs2, _ = Fsd.boot device in
  (* Simulate a wild write smashing the leader: the leader is the start
     of the first data-area read (the piggyback transfer). *)
  let layout = Fsd.layout fs2 in
  let seen = ref [] in
  Device.set_observer device
    (Some
       (fun ~rw:_ ~sector ~count ->
         if Layout.is_data_sector layout sector then seen := (sector, count) :: !seen));
  ignore (Fsd.read_all fs2 ~name:"target");
  Device.set_observer device None;
  let leader_sector =
    match List.rev !seen with
    | (sector, count) :: _ when count >= 2 -> sector
    | _ -> Alcotest.fail "expected a piggybacked leader+data read"
  in
  let rng = Rng.create 99 in
  Device.corrupt device leader_sector ~rng;
  let fs3, _ = Fsd.boot device in
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs3 ~name:"target")

(* A leader whose sector cannot be read is lost redundancy, not a lost
   file: the leader "carries no information needed for operation"
   (leader.mli). The file's first read returns its data, rewrites the
   leader from the entry and counts the repair as the scrubber does.
   [page] picks the path by which that read verifies the leader: page 0
   rides the leader's transfer (§5.7), any other page reads it alone. *)
let check_damaged_leader_read ~page =
  let device, fs = fresh_fs () in
  let data = content (3 * 512) 4 in
  ignore (Fsd.create fs ~name:"victim" data);
  Fsd.shutdown fs;
  let fs2, _ = Fsd.boot device in
  let anchor =
    Fsd.fold_entries fs2 ~init:(-1) ~f:(fun acc ~name ~version:_ e ->
        if name = "victim" then e.Entry.anchor else acc)
  in
  Device.damage device anchor;
  check bool "check flags the damaged leader" true (Result.is_error (Fsd.check fs2));
  let ios = ref [] in
  Device.set_observer device
    (Some (fun ~rw ~sector ~count -> ios := (rw, sector, count) :: !ios));
  let got = Fsd.read_page fs2 ~name:"victim" ~page in
  Device.set_observer device None;
  check bool "content reads back" true
    (Bytes.equal got (Bytes.sub data (page * 512) 512));
  (match List.rev !ios with
  | (`R, sector, count) :: _ ->
    check int "the first read starts at the leader" anchor sector;
    check bool "with the data only on page 0" (page = 0) (count > 1)
  | _ -> Alcotest.fail "expected a read of the leader first");
  check bool "leader rewritten" true (List.mem (`W, anchor, 1) !ios);
  check int "repair counted" 1 (fsd_count fs2 "scrub_leader_repairs");
  check int "no piggyback counted" 0 (fsd_count fs2 "leader_piggybacks");
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_damaged_leader_piggybacked () = check_damaged_leader_read ~page:0
let test_damaged_leader_read_alone () = check_damaged_leader_read ~page:1

(* ------------------------------------------------------------------ *)
(* I/O behaviour (the paper's headline properties)                     *)

let count_ios device f =
  let before = Iostats.copy (Device.stats device) in
  let r = f () in
  let after = Iostats.copy (Device.stats device) in
  (r, (Iostats.diff ~after ~before).Iostats.ios)

let test_create_is_one_synchronous_io () =
  let device, fs = fresh_fs () in
  (* Warm up so the FNT root etc. are cached. *)
  ignore (Fsd.create fs ~name:"warm" (content 100 0));
  Fsd.force fs;
  let _, ios =
    count_ios device (fun () -> Fsd.create fs ~name:"one-io" (content 900 1))
  in
  (* One combined leader+data write; no other I/O before the commit. *)
  check int "exactly one io" 1 ios

let test_open_does_no_io () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"cached-open" (content 100 0));
  Fsd.force fs;
  let _, ios = count_ios device (fun () -> Fsd.open_stat fs ~name:"cached-open") in
  check int "open without io" 0 ios

let test_delete_does_no_io () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"quick-delete" (content 100 0));
  Fsd.force fs;
  let _, ios = count_ios device (fun () -> Fsd.delete fs ~name:"quick-delete") in
  check int "delete without io" 0 ios

let test_list_does_no_io_when_cached () =
  let device, fs = fresh_fs () in
  for i = 1 to 20 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "dir/f%02d" i) (content 64 i))
  done;
  Fsd.force fs;
  ignore (Fsd.list fs ~prefix:"dir/");
  let l, ios = count_ios device (fun () -> Fsd.list fs ~prefix:"dir/") in
  check int "20 files listed" 20 (List.length l);
  check int "no io" 0 ios

let test_group_commit_batches_many_creates () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"warm" (content 10 0));
  Fsd.force fs;
  let records_before = (Fsd.log_stats fs).Log.records in
  let _, ios =
    count_ios device (fun () ->
        for i = 1 to 10 do
          ignore (Fsd.create fs ~name:(Printf.sprintf "batch%02d" i) (content 400 i))
        done;
        Fsd.force fs)
  in
  let records = (Fsd.log_stats fs).Log.records - records_before in
  (* 10 creates: 10 data writes + about one log record. *)
  check bool "about 11 ios for 10 creates" true (ios <= 13);
  check bool "one or two records" true (records <= 2)

(* §5.3: a leader logged but never piggybacked must be written home by
   the logging code before the third holding its log copy is reused. A
   touch makes the cached file's leader go through the log; no [tick]
   runs, so the home-write demon never pre-homes it and only
   [handle_enter_third] can. [Leader.matches] ignores cached-file
   properties, so the test reads the leader sector itself. *)
let test_leader_homed_at_third_entry () =
  let device, fs = fresh_fs () in
  ignore (Fsd.import_cached fs ~name:"rem/lead" ~server:"ivy" (content 300 1));
  Fsd.force fs;
  Fsd.touch_cached fs ~name:"rem/lead";
  let touched = Option.get (Fsd.last_used fs ~name:"rem/lead") in
  Fsd.force fs;
  let entries () = (Fsd.log_stats fs).Log.third_entries in
  let start = entries () in
  let i = ref 0 in
  while entries () < start + 4 && !i < 5000 do
    incr i;
    ignore (Fsd.create fs ~name:"fill" ~keep:1 (content 32 !i));
    Fsd.force fs
  done;
  check bool "log wrapped" true (entries () >= start + 4);
  let fs2, _ = Fsd.boot device in
  check (Alcotest.option int) "last_used survives" (Some touched)
    (Fsd.last_used fs2 ~name:"rem/lead");
  let anchor =
    Fsd.fold_entries fs2 ~init:(-1) ~f:(fun acc ~name ~version:_ e ->
        if name = "rem/lead" then e.Entry.anchor else acc)
  in
  let on_disk =
    match Leader.decode (Device.read device anchor) with
    | Some { Leader.kind = Leader.Cached { last_used; _ }; _ } -> Some last_used
    | Some _ | None -> None
  in
  check (Alcotest.option int) "leader on disk carries the touch" (Some touched) on_disk;
  check bool "full check" true (Fsd.check fs2 = Ok ());
  (* A cold read of a file whose leader is pending checks the in-memory
     image instead of piggybacking on the stale home copy. *)
  Fsd.touch_cached fs2 ~name:"rem/lead";
  check bool "read with a pending leader" true
    (Bytes.equal (content 300 1) (Fsd.read_all fs2 ~name:"rem/lead"))

(* The leader twin of the store's diverged-page test (§5.3). A cached
   file is touched and forced, so its leader's last log copy holds the
   first touch, then touched again. The force that logs the second touch
   is the one whose record re-enters the first touch's third: the
   reclaim must write the first touch home, the committed image, and not
   the second, which no log copy holds yet. A crash right after that
   home write must recover the first touch; without one, the leader
   sector holds the second touch once its own third is reclaimed. No
   [tick] runs, so the home-write demon never homes a leader first. *)
let test_diverged_leader_homes_committed_image () =
  let name = "rem/lead" in
  let entries fs = (Fsd.log_stats fs).Log.third_entries in
  let fill fs i =
    ignore (Fsd.create fs ~name:"fill" ~keep:1 (content 32 i));
    Fsd.force fs
  in
  (* Fill after the first touch's force: [k] forces, or (with [None])
     until a record enters a third for the third time since — the force
     that re-enters the first touch's third. *)
  let setup fillers =
    let device, fs = fresh_fs () in
    ignore (Fsd.import_cached fs ~name ~server:"ivy" (content 300 1));
    Fsd.force fs;
    Fsd.touch_cached fs ~name;
    let first = Option.get (Fsd.last_used fs ~name) in
    Fsd.force fs;
    let e0 = entries fs in
    let n = ref 0 in
    while
      match fillers with Some k -> !n < k | None -> entries fs < e0 + 3 && !n < 5000
    do
      incr n;
      fill fs !n
    done;
    (device, fs, first, e0, !n)
  in
  let _, fs, _, e0, reclaiming = setup None in
  check int "the log wrapped" (e0 + 3) (entries fs);
  let leader_sector fs =
    Fsd.fold_entries fs ~init:(-1) ~f:(fun acc ~name:n ~version:_ e ->
        if String.equal n name then e.Entry.anchor else acc)
  in
  let on_disk device sector =
    match Leader.decode (Device.read device sector) with
    | Some { Leader.kind = Leader.Cached { last_used; _ }; _ } -> Some last_used
    | Some _ | None -> None
  in
  let touched_again () =
    let device, fs, first, e0, _ = setup (Some (reclaiming - 1)) in
    check int "first touch's third not re-entered yet" (e0 + 2) (entries fs);
    Fsd.touch_cached fs ~name;
    let second = Option.get (Fsd.last_used fs ~name) in
    check bool "touches differ" true (second > first);
    (device, fs, leader_sector fs, first, second)
  in
  let some = Alcotest.(option int) in
  (* Crash at the first write after the reclaim writes the leader home. *)
  let device, fs, sector, first, _ = touched_again () in
  Device.set_observer device
    (Some
       (fun ~rw ~sector:s ~count:_ ->
         if rw = `W && s = sector then
           Device.plan_write_crash_tear device ~after_sectors:1 ~tear:Device.Tear_none));
  (match Fsd.force fs with
  | () -> Alcotest.fail "the reclaim wrote no leader home"
  | exception Device.Crash_during_write _ -> ());
  Device.set_observer device None;
  check some "the reclaim homed the first touch" (Some first) (on_disk device sector);
  let fs2, _ = Fsd.boot device in
  check some "a crash recovers the first touch" (Some first) (Fsd.last_used fs2 ~name);
  check some "its leader too" (Some first) (on_disk device sector);
  check bool "check after the crash" true (Fsd.check fs2 = Ok ());
  (* No crash: the second touch goes home with its own third. *)
  let device, fs, sector, first, second = touched_again () in
  Fsd.force fs;
  check some "the reclaim homed the first touch" (Some first) (on_disk device sector);
  let e1 = entries fs in
  let i = ref reclaiming in
  while entries fs < e1 + 3 do
    incr i;
    fill fs !i
  done;
  check some "the next reclaim homes the second touch" (Some second)
    (on_disk device sector)

(* [list] finds every name that starts with the prefix, also one whose
   bytes after the prefix start with four 0xff bytes (a valid name). *)
let test_list_finds_names_past_ff () =
  let _, fs = fresh_fs () in
  let odd = "a/\xff\xff\xff\xffz" in
  List.iteri
    (fun i name -> ignore (Fsd.create fs ~name (content 10 i)))
    [ "a/b"; odd; "a0" ];
  check bool "exists" true (Fsd.exists fs ~name:odd);
  check (Alcotest.list Alcotest.string) "listed" [ "a/b"; odd ]
    (List.map (fun i -> i.Fs_ops.name) (Fsd.list fs ~prefix:"a/"))

let test_vam_reconstruction_equals_tracked () =
  let device, fs = fresh_fs () in
  for i = 1 to 30 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "f%03d" i) (content ((i * 97) mod 2000) i))
  done;
  for i = 1 to 30 do
    if i mod 3 = 0 then Fsd.delete fs ~name:(Printf.sprintf "f%03d" i)
  done;
  Fsd.force fs;
  let tracked = Fsd.free_sectors fs in
  (* Crash (no clean shutdown): boot must reconstruct the same VAM. *)
  let fs2, report = Fsd.boot device in
  check bool "reconstructed" true (report.Fsd.vam_source = Fsd.Vam_reconstructed);
  check int "same free count" tracked (Fsd.free_sectors fs2)

(* A crash after cached files' leaders were logged: boot applies the
   images whose anchor the name table still names and skips the four of
   deleted files. The map rebuilt a run at a time (or replayed, with VAM
   logging) equals the one a per-sector rebuild of the recovered name
   table gives, byte for byte, and the boot report, simulated times
   included, is the one the per-sector rebuild gave. *)
let test_boot_rebuild_equals_per_sector () =
  let boot_after_crash ~log_vam =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.small_test in
    Fsd.format device { (Params.for_geometry Geometry.small_test) with Params.log_vam };
    let fs = boot_fs device in
    let cached i = Printf.sprintf "rem/c%02d" i and local i = Printf.sprintf "loc/f%02d" i in
    for i = 1 to 12 do
      ignore (Fsd.import_cached fs ~name:(cached i) ~server:"ivy" (content (200 * i) i))
    done;
    for i = 1 to 20 do
      ignore (Fsd.create fs ~name:(local i) (content (i * 397 mod 3000) i))
    done;
    Fsd.force fs;
    for i = 1 to 12 do
      Fsd.touch_cached fs ~name:(cached i)
    done;
    let touched = Fsd.last_used fs ~name:(cached 1) in
    Fsd.force fs;
    for i = 1 to 12 do
      if i mod 3 = 0 then Fsd.delete fs ~name:(cached i)
    done;
    for i = 1 to 20 do
      if i mod 4 = 0 then Fsd.delete fs ~name:(local i)
    done;
    Fsd.force fs;
    let fs2, report = Fsd.boot device in
    let l = Fsd.layout fs2 in
    let reference = Vam.create_all_free l in
    Fsd.fold_entries fs2 ~init:() ~f:(fun () ~name:_ ~version:_ e ->
        if e.Entry.anchor >= 0 then Vam.mark_allocated_for_rebuild reference e.Entry.anchor;
        Run_table.iter_sectors e.Entry.runs (Vam.mark_allocated_for_rebuild reference));
    let total = Geometry.total_sectors Geometry.small_test in
    let map free =
      let b = Bitmap.create total in
      for s = 0 to total - 1 do
        if free s then Bitmap.set b s
      done;
      Bitmap.to_bytes b
    in
    check bool "map equals the per-sector rebuild" true
      (Bytes.equal (map (Fsd.sector_is_free fs2)) (map (Vam.is_free reference)));
    let anchor =
      Fsd.fold_entries fs2 ~init:(-1) ~f:(fun acc ~name ~version:_ e ->
          if name = cached 1 then e.Entry.anchor else acc)
    in
    let on_disk =
      match Leader.decode (Device.read device anchor) with
      | Some { Leader.kind = Leader.Cached { last_used; _ }; _ } -> Some last_used
      | Some _ | None -> None
    in
    check (Alcotest.option int) "a logged leader went home" touched on_disk;
    check bool "full check" true (Fsd.check fs2 = Ok ());
    report
  in
  let pinned (r : Fsd.boot_report) =
    Printf.sprintf "%d records, %d pages, %d skipped, %s; replay %d us, vam %d us, total %d us"
      r.Fsd.replayed_records r.Fsd.replayed_pages r.Fsd.skipped_leaders
      (match r.Fsd.vam_source with
      | Fsd.Vam_loaded -> "loaded"
      | Fsd.Vam_reconstructed -> "reconstructed"
      | Fsd.Vam_replayed -> "replayed")
      r.Fsd.log_replay_us r.Fsd.vam_us r.Fsd.total_us
  in
  check Alcotest.string "rebuilt map"
    "6 records, 18 pages, 4 skipped, reconstructed; replay 458782 us, vam 285528 us, total 934682 us"
    (pinned (boot_after_crash ~log_vam:false));
  check Alcotest.string "VAM logging"
    "6 records, 19 pages, 4 skipped, replayed; replay 475448 us, vam 68570 us, total 963508 us"
    (pinned (boot_after_crash ~log_vam:true))

(* A sector allocated but claimed by no entry has leaked, and Fsd.check
   must say so; the sectors of a delete awaiting its commit have not.
   The leak is planted in the map saved at shutdown, which the next boot
   loads as it stands. *)
let test_check_catches_leaked_run () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"kept" (content 700 1));
  ignore (Fsd.create fs ~name:"gone" (content 900 2));
  Fsd.force fs;
  Fsd.delete fs ~name:"gone";
  check bool "a delete awaiting commit is no leak" true (Fsd.check fs = Ok ());
  Fsd.shutdown fs;
  let l = Fsd.layout fs in
  let vam, mode, epoch = Option.get (Vam.load l device) in
  let pos =
    Option.get (Vam.find_free_run vam ~from:l.Layout.small_lo ~upto:l.Layout.small_hi ~len:2)
  in
  Vam.allocate_run vam ~pos ~len:2;
  Vam.save ~mode ~epoch vam device;
  let fs2, report = Fsd.boot device in
  check bool "the saved map is loaded" true (report.Fsd.vam_source = Fsd.Vam_loaded);
  match Fsd.check fs2 with
  | Ok () -> Alcotest.fail "a run claimed by no entry passed Fsd.check"
  | Error m ->
    check bool ("reported as a VAM disagreement: " ^ m) true
      (String.starts_with ~prefix:"VAM free count" m)

(* Property: version semantics (create bumps, keep trims, delete peels
   the newest) against a list model. *)
let prop_version_semantics =
  QCheck.Test.make ~name:"version lists match a reference model" ~count:30
    QCheck.(pair (int_bound 1_000) (small_list (pair (int_bound 3) (int_range 0 4))))
    (fun (seed, ops) ->
      let _, fs = fresh_fs () in
      let rng = Rng.create (seed + 11) in
      (* model: ascending version list; a new version is newest+1 (so the
         numbering restarts after a full deletion), and keep=k trims
         versions at or below newest-k *)
      let versions = ref [] in
      let newest () = List.fold_left max 0 !versions in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 | 1 ->
            let keep = k in
            let v = newest () + 1 in
            ignore (Fsd.create fs ~name:"vfile" ~keep (content (Rng.int rng 600) v));
            versions := !versions @ [ v ];
            if keep > 0 then versions := List.filter (fun x -> x > v - keep) !versions
          | 2 ->
            if !versions <> [] then begin
              Fsd.delete fs ~name:"vfile";
              let n = newest () in
              versions := List.filter (fun x -> x <> n) !versions
            end
          | _ -> ignore (Fsd.exists fs ~name:"vfile"))
        ops;
      Fsd.versions fs ~name:"vfile" = !versions)

(* Property: random operation sequence with random crash points; after
   recovery the file system matches the model of committed operations.

   The model must be commit-AWARE, not commit-driven: the FSD runs its
   own group-commit demon (time-based once the commit interval elapses,
   bulk-triggered when enough pages accumulate), so mutations become
   durable between the script's explicit op-4 forces. Each pending model
   entry therefore carries the `Fsd.mutation_seq` it corresponds to, and
   after every step entries covered by `Fsd.durable_seq` migrate to the
   committed map. An earlier version of this property applied pending
   entries only on explicit forces and flaked whenever a hidden commit
   fired before a crash (seed 40; see test_crash_hidden_commit_model
   below for the minimised script). *)
let crash_consistency_run seed script =
  let geom = Geometry.tiny_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params = Params.for_geometry geom in
  Fsd.format device params;
  let fs = ref (fst (Fsd.boot device)) in
  let rng = Rng.create (seed + 1) in
  (* model: name -> content of committed state; pending: not-yet-durable
     entries tagged with the mutation_seq that makes them durable *)
  let committed : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref [] in
  let hidden_commits = ref 0 in
  let sync_durable ~explicit =
    let d = Fsd.durable_seq !fs in
    let durable, still = List.partition (fun (s, _, _) -> s <= d) !pending in
    List.iter
      (fun (_, name, data) ->
        match data with
        | Some d -> Hashtbl.replace committed name d
        | None -> Hashtbl.remove committed name)
      (List.rev durable);
    pending := still;
    if (not explicit) && durable <> [] then incr hidden_commits
  in
  let names = [| "a"; "b"; "c"; "d"; "e" |] in
  (try
     List.iter
       (fun (op, which) ->
         let name = names.(which mod Array.length names) in
         (match op with
         | 0 | 1 | 2 ->
           let data = content (Rng.int rng 1500) (Rng.int rng 100) in
           ignore (Fsd.create !fs ~name ~keep:1 data);
           pending := (Fsd.mutation_seq !fs, name, Some data) :: !pending
         | 3 ->
           if Fsd.exists !fs ~name then begin
             (* keep=1: deleting removes the only version *)
             Fsd.delete !fs ~name;
             pending := (Fsd.mutation_seq !fs, name, None) :: !pending
           end
         | 4 -> Fsd.force !fs
         | 5 ->
           (* crash now: not-yet-durable ops lost *)
           pending := [];
           fs := fst (Fsd.boot device)
         | _ -> Fsd.tick !fs ~us:40_000);
         sync_durable ~explicit:(op = 4))
       script
   with Fs_error.Fs_error Fs_error.Volume_full -> ());
  (* Final force + recovery. *)
  Fsd.force !fs;
  sync_durable ~explicit:true;
  let fs2, _ = Fsd.boot device in
  let ok_contents =
    Hashtbl.fold
      (fun name data acc ->
        acc && Bytes.equal data (Fsd.read_all fs2 ~name))
      committed true
  in
  (ok_contents && Fsd.check fs2 = Ok (), !hidden_commits)

let prop_crash_consistency =
  QCheck.Test.make ~name:"crash consistency: committed ops survive, FS stays valid"
    ~count:25
    QCheck.(pair small_int (small_list (pair (int_bound 6) (int_bound 4))))
    (fun (seed, script) -> fst (crash_consistency_run seed script))

(* Regression: the minimised seed-40 flake from ROADMAP.md (delta-debugged
   43 -> 20 steps). The ticks push the clock past the commit interval, so
   the FSD's own time demon commits the second "d" create mid-script; the
   crash at the end then exposed the old model's stale idea of "d". The
   run must pass under the commit-aware model AND actually exercise a
   hidden (non-explicit-force) commit — otherwise the script no longer
   reproduces the scenario it pins. *)
let test_crash_hidden_commit_model () =
  let script =
    [ (2, 3); (4, 4); (6, 1); (6, 0); (6, 0); (2, 4); (6, 3); (6, 4);
      (1, 2); (2, 3); (3, 1); (6, 1); (2, 2); (0, 2); (3, 2); (0, 2);
      (0, 2); (2, 0); (1, 0); (5, 0) ]
  in
  let ok, hidden = crash_consistency_run 40 script in
  check bool "minimised seed-40 script passes with commit-aware model" true ok;
  check bool "script still triggers a hidden commit" true (hidden > 0)

let suite =
  [
    ("create/read roundtrip", `Quick, test_create_read_roundtrip);
    ("empty file", `Quick, test_empty_file);
    ("read page", `Quick, test_read_page);
    ("missing file errors", `Quick, test_missing_file_errors);
    ("versions and keep", `Quick, test_versions_and_keep);
    ("delete", `Quick, test_delete);
    ("list", `Quick, test_list);
    ("list finds names past 0xff bytes", `Quick, test_list_finds_names_past_ff);
    ("symlink", `Quick, test_symlink);
    ("cached last-used", `Quick, test_cached_last_used);
    ("inspect report", `Quick, test_inspect_report);
    ("clean shutdown + reboot", `Quick, test_clean_shutdown_reboot);
    ("ops after shutdown rejected", `Quick, test_ops_after_shutdown_rejected);
    ("crash: committed survives", `Quick, test_crash_committed_survives);
    ("crash: uncommitted lost cleanly", `Quick, test_crash_uncommitted_lost_cleanly);
    ("crash: uncommitted delete keeps file", `Quick, test_crash_uncommitted_delete_keeps_file);
    ("crash: committed delete stays deleted", `Quick, test_crash_committed_delete_stays_deleted);
    ("crash: hidden commit vs model (seed-40 regression)", `Quick, test_crash_hidden_commit_model);
    ("group commit interval", `Quick, test_group_commit_interval);
    ("torn group commit", `Quick, test_torn_group_commit);
    ("repeated crashes", `Quick, test_repeated_crashes);
    ("FNT copy damage repaired", `Quick, test_fnt_copy_damage_repaired);
    ("boot page replica", `Quick, test_boot_page_replica);
    ("data damage isolated", `Quick, test_data_damage_isolated_to_file);
    ("leader detects wild write", `Quick, test_leader_detects_wild_write);
    ("a size that does not fit its pages is refused", `Quick,
      test_size_not_fitting_pages_refused);
    ("damaged leader: piggybacked read", `Quick, test_damaged_leader_piggybacked);
    ("damaged leader: separate read", `Quick, test_damaged_leader_read_alone);
    ("create = one synchronous io", `Quick, test_create_is_one_synchronous_io);
    ("open does no io", `Quick, test_open_does_no_io);
    ("delete does no io", `Quick, test_delete_does_no_io);
    ("list does no io when cached", `Quick, test_list_does_no_io_when_cached);
    ("group commit batches creates", `Quick, test_group_commit_batches_many_creates);
    ("leader homed at third entry", `Quick, test_leader_homed_at_third_entry);
    ("diverged leader homes its committed image", `Quick,
      test_diverged_leader_homes_committed_image);
    ("vam reconstruction equals tracked", `Quick, test_vam_reconstruction_equals_tracked);
    ("boot rebuild equals a per-sector rebuild", `Quick, test_boot_rebuild_equals_per_sector);
    ("check catches a leaked run", `Quick, test_check_catches_leaked_run);
    QCheck_alcotest.to_alcotest prop_version_semantics;
    QCheck_alcotest.to_alcotest prop_crash_consistency;
  ]
