(* Tests for the CFS baseline: label discipline, header/name-table
   redundancy, the scavenger, and the I/O cost that motivates FSD. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_cfs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Cfs.format device (Cfs_layout.params_for_geometry geom);
  let fs = match Cfs.boot device with
    | `Ok fs -> fs
    | `Needs_scavenge -> Alcotest.fail "fresh volume must boot cleanly"
  in
  (device, fs)

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let expect_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Fs_error"
  | exception Fs_error.Fs_error e ->
    if not (expected e) then
      Alcotest.fail ("unexpected error: " ^ Fs_error.to_string e)

let test_create_read_roundtrip () =
  let _, fs = fresh () in
  let data = content 1500 3 in
  let info = Cfs.create fs ~name:"prog.mesa" data in
  check int "version" 1 info.Fs_ops.version;
  check bool "roundtrip" true (Bytes.equal data (Cfs.read_all fs ~name:"prog.mesa"));
  check bool "check ok" true (Cfs.check fs = Ok ())

let test_versions_keep_delete () =
  let _, fs = fresh () in
  for v = 1 to 4 do
    ignore (Cfs.create fs ~name:"v" ~keep:2 (content 64 v))
  done;
  check (Alcotest.list int) "keep 2" [ 3; 4 ] (Cfs.versions fs ~name:"v");
  Cfs.delete fs ~name:"v";
  check (Alcotest.list int) "delete newest" [ 3 ] (Cfs.versions fs ~name:"v");
  check bool "older readable" true
    (Bytes.equal (content 64 3) (Cfs.read_all fs ~name:"v"))

let test_list_reads_headers () =
  let device, fs = fresh () in
  for i = 1 to 10 do
    ignore (Cfs.create fs ~name:(Printf.sprintf "d/f%02d" i) (content 100 i))
  done;
  Cfs.drop_open_cache fs;
  let before = (Device.stats device).Iostats.ios in
  let l = Cfs.list fs ~prefix:"d/" in
  let ios = (Device.stats device).Iostats.ios - before in
  check int "10 files" 10 (List.length l);
  (* One header read per file, unlike FSD's zero. *)
  check bool "about one io per file" true (ios >= 10)

let test_create_costs_many_ios () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"warm" (content 10 0));
  let before = (Device.stats device).Iostats.ios in
  ignore (Cfs.create fs ~name:"costly" (content 400 1));
  let ios = (Device.stats device).Iostats.ios - before in
  (* verify labels, write header labels, write data labels, header,
     data, name table, header rewrite: at least 6. *)
  check bool (Printf.sprintf "at least 6 ios (got %d)" ios) true (ios >= 6)

let test_label_mismatch_detected () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"guarded" (content 512 1));
  (* Find the data sector via the observer, then smash its label as a
     wild write would. *)
  Cfs.drop_open_cache fs;
  let data_sector = ref (-1) in
  Device.set_observer device
    (Some
       (fun ~rw ~sector ~count ->
         if rw = `R && count = 1 && !data_sector < 0 then data_sector := sector));
  ignore (Cfs.read_page fs ~name:"guarded" ~page:0);
  Device.set_observer device None;
  check bool "found data sector" true (!data_sector >= 0);
  Device.write_labels device ~sector:!data_sector
    [ { Label.uid = 4242L; page = 9; kind = Label.Data } ];
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Cfs.read_page fs ~name:"guarded" ~page:0)

let test_shutdown_reboot () =
  let device, fs = fresh () in
  let data = content 800 9 in
  ignore (Cfs.create fs ~name:"persist" data);
  Cfs.shutdown fs;
  match Cfs.boot device with
  | `Needs_scavenge -> Alcotest.fail "clean shutdown must boot"
  | `Ok fs2 ->
    check bool "data" true (Bytes.equal data (Cfs.read_all fs2 ~name:"persist"));
    check bool "check" true (Cfs.check fs2 = Ok ())

let test_crash_requires_scavenge () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"x" (content 100 0));
  (* no shutdown: crash *)
  ignore fs;
  match Cfs.boot device with
  | `Needs_scavenge -> ()
  | `Ok _ -> Alcotest.fail "crash must force a scavenge"

let test_scavenge_recovers_files () =
  let device, fs = fresh () in
  let files = List.init 12 (fun i -> (Printf.sprintf "s/f%02d" i, content ((i * 131) mod 1400) i)) in
  List.iter (fun (name, data) -> ignore (Cfs.create fs ~name data)) files;
  (* crash *)
  let fs2, report = Cfs.scavenge device in
  check int "all recovered" (List.length files) report.Cfs.files_recovered;
  check int "none lost" 0 report.Cfs.files_lost;
  List.iter
    (fun (name, data) ->
      check bool (name ^ " content") true (Bytes.equal data (Cfs.read_all fs2 ~name)))
    files;
  check bool "check" true (Cfs.check fs2 = Ok ());
  check bool "scavenge takes real time" true (report.Cfs.duration_us > 100_000)

let test_scavenge_after_torn_name_table_write () =
  let device, fs = fresh () in
  for i = 1 to 20 do
    ignore (Cfs.create fs ~name:(Printf.sprintf "t/f%02d" i) (content 300 i))
  done;
  (* Crash mid name-table page write: tear the next multi-sector FNT
     write. The name table page is torn, but scavenging rebuilds it from
     the headers. *)
  Device.plan_write_crash device ~after_sectors:1 ~damage_tail:1;
  (match Cfs.create fs ~name:"t/killer" (content 300 99) with
  | _ -> Device.cancel_write_crash device
  | exception Device.Crash_during_write _ -> ());
  let fs2, report = Cfs.scavenge device in
  check bool "most files recovered" true (report.Cfs.files_recovered >= 20);
  check bool "post-scavenge check" true (Cfs.check fs2 = Ok ());
  for i = 1 to 20 do
    let name = Printf.sprintf "t/f%02d" i in
    check bool (name ^ " intact") true
      (Bytes.equal (content 300 i) (Cfs.read_all fs2 ~name))
  done

let test_scavenge_reclaims_lost_free_pages () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"a" (content 2000 1));
  let free_after_create = Cfs.free_sector_hints fs in
  (* crash; scavenge must rediscover exactly the same free space *)
  let fs2, _ = Cfs.scavenge device in
  check int "free hints rebuilt" free_after_create (Cfs.free_sector_hints fs2)

let test_header_loss_loses_only_that_file () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"victim" (content 600 1));
  ignore (Cfs.create fs ~name:"bystander" (content 600 2));
  (* Find the victim's header sector by observing an open. *)
  Cfs.drop_open_cache fs;
  let hdr = ref (-1) in
  Device.set_observer device
    (Some (fun ~rw ~sector ~count -> if rw = `R && count = 2 && !hdr < 0 then hdr := sector));
  ignore (Cfs.open_stat fs ~name:"victim");
  Device.set_observer device None;
  check bool "header located" true (!hdr >= 0);
  Device.damage device !hdr;
  Device.damage device (!hdr + 1);
  let fs2, report = Cfs.scavenge device in
  check int "one file lost" 1 report.Cfs.files_lost;
  check bool "bystander survives" true
    (Bytes.equal (content 600 2) (Cfs.read_all fs2 ~name:"bystander"));
  check bool "victim gone" false
    (List.exists (fun i -> i.Fs_ops.name = "victim") (Cfs.list fs2 ~prefix:""))

let test_open_costs_one_io_cold () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"measured" (content 100 0));
  Cfs.drop_open_cache fs;
  let before = (Device.stats device).Iostats.ios in
  ignore (Cfs.open_stat fs ~name:"measured");
  let ios = (Device.stats device).Iostats.ios - before in
  (* name-table leaf cached from the create; the header read remains *)
  check int "one io" 1 ios

let test_vam_is_only_a_hint () =
  let device, fs = fresh () in
  (* Manually claim a sector behind the VAM's back (stale hint): the
     verified allocation must detect it via labels and go elsewhere. *)
  let layout = Cfs.layout fs in
  let s = layout.Cfs_layout.data_lo in
  Device.write_labels device ~sector:s
    (List.init 8 (fun i -> { Label.uid = 777L; page = i; kind = Label.Data }));
  let data = content 700 5 in
  ignore (Cfs.create fs ~name:"dodger" data);
  check bool "file fine despite stale hint" true
    (Bytes.equal data (Cfs.read_all fs ~name:"dodger"));
  check bool "check ok" true (Cfs.check fs = Ok ())

let test_cached_touch_costs_header_rewrite () =
  let device, fs = fresh () in
  ignore (Cfs.import_cached fs ~name:"cache/x" ~server:"ivy" (content 500 3));
  let t0 = Option.get (Cfs.last_used fs ~name:"cache/x") in
  let before = (Device.stats device).Iostats.writes in
  Cfs.touch_cached fs ~name:"cache/x";
  let writes = (Device.stats device).Iostats.writes - before in
  check int "one header rewrite per touch" 1 writes;
  check bool "time advanced" true (Option.get (Cfs.last_used fs ~name:"cache/x") >= t0)

let test_cached_survives_scavenge_with_properties () =
  let device, fs = fresh () in
  ignore (Cfs.import_cached fs ~name:"cache/y" ~server:"ivy" (content 700 4));
  Cfs.touch_cached fs ~name:"cache/y";
  let lu = Option.get (Cfs.last_used fs ~name:"cache/y") in
  let fs2, _ = Cfs.scavenge device in
  check bool "content" true (Bytes.equal (content 700 4) (Cfs.read_all fs2 ~name:"cache/y"));
  check (Alcotest.option int) "last-used survives (it is in the header)" (Some lu)
    (Cfs.last_used fs2 ~name:"cache/y")

(* The sector of [name]'s header, found by watching a cold open read
   it, and the header it holds. *)
let header_of device fs name =
  Cfs.drop_open_cache fs;
  let hdr = ref (-1) in
  Device.set_observer device
    (Some (fun ~rw ~sector ~count -> if rw = `R && count = 2 && !hdr < 0 then hdr := sector));
  ignore (Cfs.open_stat fs ~name);
  Device.set_observer device None;
  let image = Device.read_run device ~sector:!hdr ~count:Header.sectors in
  (!hdr, Option.get (File_record.decode Header.format image))

(* Rewrites the header at [sector] with a valid checksum. *)
let write_header device ~sector h =
  let sector_bytes = (Device.geometry device).Geometry.sector_bytes in
  Device.write_run device ~sector (File_record.encode Header.format h ~sector_bytes)

(* A header that claims a byte size its file's pages cannot hold — 5,000
   or 100 bytes for a 1,000-byte file of two pages, written with a valid
   checksum — makes [read_all] raise [Corrupt_metadata], instead of
   failing inside [Bytes.sub] or returning 100 bytes as the file, and
   [Cfs.check] fail naming the file. *)
let test_size_not_fitting_pages_refused () =
  List.iter
    (fun claim ->
      let device, fs = fresh () in
      ignore (Cfs.create fs ~name:"size/f" (content 1000 1));
      let sector, h = header_of device fs "size/f" in
      check int "two pages" 2 (Run_table.pages h.File_record.runs);
      write_header device ~sector { h with File_record.byte_size = claim };
      Cfs.drop_open_cache fs;
      (match Cfs.read_all fs ~name:"size/f" with
      | b -> Alcotest.failf "%d bytes claimed: read %d bytes" claim (Bytes.length b)
      | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata _) -> ());
      match Cfs.check fs with
      | Ok () -> Alcotest.failf "%d bytes claimed: check passed" claim
      | Error m ->
        check Alcotest.string "check names the file"
          (Printf.sprintf "size/f!000001: byte size %d does not fit its 2 data pages" claim)
          m)
    [ 5000; 100 ]

(* Two headers that claim one data page: dup/g's header rewritten to
   hold dup/f's run table. [read_all] of dup/g meets dup/f's labels, and
   [Cfs.check] names the sector claimed twice. *)
let test_sector_claimed_twice_detected () =
  let device, fs = fresh () in
  ignore (Cfs.create fs ~name:"dup/f" (content 300 1));
  ignore (Cfs.create fs ~name:"dup/g" (content 300 2));
  let _, f = header_of device fs "dup/f" in
  let sector, g = header_of device fs "dup/g" in
  write_header device ~sector { g with File_record.runs = f.File_record.runs };
  Cfs.drop_open_cache fs;
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Cfs.read_all fs ~name:"dup/g");
  match Cfs.check fs with
  | Ok () -> Alcotest.fail "check passed"
  | Error m ->
    check Alcotest.string "check names the sector"
      (Printf.sprintf "dup/g!000001: sector %d claimed twice"
         (Run_table.sector_of_page f.File_record.runs 0))
      m

(* [list] finds every name that starts with the prefix, also one whose
   bytes after the prefix start with four 0xff bytes (a valid name). *)
let test_list_finds_names_past_ff () =
  let _, fs = fresh () in
  let odd = "a/\xff\xff\xff\xffz" in
  ignore (Cfs.create fs ~name:"a/b" (content 10 1));
  ignore (Cfs.create fs ~name:odd (content 10 2));
  ignore (Cfs.create fs ~name:"a0" (content 10 3));
  check bool "exists" true (Cfs.exists fs ~name:odd);
  check (Alcotest.list Alcotest.string) "listed" [ "a/b"; odd ]
    (List.map (fun i -> i.Fs_ops.name) (Cfs.list fs ~prefix:"a/"))

let suite =
  [
    ("create/read roundtrip", `Quick, test_create_read_roundtrip);
    ("versions, keep, delete", `Quick, test_versions_keep_delete);
    ("list reads headers", `Quick, test_list_reads_headers);
    ("list finds names past 0xff bytes", `Quick, test_list_finds_names_past_ff);
    ("size not fitting pages refused", `Quick, test_size_not_fitting_pages_refused);
    ("sector claimed twice detected", `Quick, test_sector_claimed_twice_detected);
    ("create costs many ios", `Quick, test_create_costs_many_ios);
    ("label mismatch detected", `Quick, test_label_mismatch_detected);
    ("shutdown/reboot", `Quick, test_shutdown_reboot);
    ("crash requires scavenge", `Quick, test_crash_requires_scavenge);
    ("scavenge recovers files", `Quick, test_scavenge_recovers_files);
    ("scavenge after torn name-table write", `Quick, test_scavenge_after_torn_name_table_write);
    ("scavenge reclaims free pages", `Quick, test_scavenge_reclaims_lost_free_pages);
    ("header loss loses only that file", `Quick, test_header_loss_loses_only_that_file);
    ("open costs one io cold", `Quick, test_open_costs_one_io_cold);
    ("vam is only a hint", `Quick, test_vam_is_only_a_hint);
    ("cached touch costs a header rewrite", `Quick, test_cached_touch_costs_header_rewrite);
    ("cached survives scavenge", `Quick, test_cached_survives_scavenge_with_properties);
  ]
