(* Unit tests for the FSD redo log: record format, thirds, pointer
   maintenance, recovery under torn writes and sector damage. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_layout () =
  let geom = Geometry.small_test in
  let params = Params.for_geometry geom in
  Layout.compute geom params

let mk () =
  let layout = mk_layout () in
  let clock = Simclock.create () in
  let device = Device.create ~clock layout.Layout.geom in
  Log.format device layout;
  (device, layout)

let attach ?(entered = ref []) device layout =
  Log.attach device layout ~boot_count:1 ~next_record_no:1_000_000L ~write_off:0
    ~on_enter_third:(fun j -> entered := j :: !entered)

let find_image images kind =
  List.find_map (fun (k, img, _no) -> if k = kind then Some img else None) images

let fnt_unit layout id fill =
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  { Log.kind = Log.Fnt_page id; image = Bytes.make (n * sb) fill }

let leader_unit layout sector fill =
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  { Log.kind = Log.Leader_page sector; image = Bytes.make sb fill }

let test_append_and_recover_one () =
  let device, layout = mk () in
  let log = attach device layout in
  let units = [ fnt_unit layout 3 'a'; leader_unit layout 5000 'b' ] in
  ignore (Log.append log units : int);
  let r = Log.recover device layout in
  check int "one record" 1 r.Log.replayed_records;
  check int "two images" 2 (List.length r.Log.images);
  (match find_image r.Log.images (Log.Fnt_page 3) with
  | Some img -> check bool "fnt image content" true (Bytes.get img 0 = 'a')
  | None -> Alcotest.fail "fnt image missing");
  match find_image r.Log.images (Log.Leader_page 5000) with
  | Some img -> check bool "leader image content" true (Bytes.get img 0 = 'b')
  | None -> Alcotest.fail "leader image missing"

let test_record_numbering_chain () =
  let device, layout = mk () in
  let log = attach device layout in
  for i = 1 to 5 do
    ignore (Log.append log [ leader_unit layout (6000 + i) (Char.chr (48 + i)) ] : int)
  done;
  let r = Log.recover device layout in
  check int "five records" 5 r.Log.replayed_records;
  check int "five survivors" 5 (List.length r.Log.surviving)

let test_later_record_shadows_earlier () =
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 7 'x' ] : int);
  ignore (Log.append log [ fnt_unit layout 7 'y' ] : int);
  let r = Log.recover device layout in
  check int "both replayed" 2 r.Log.replayed_records;
  check int "deduped image" 1 (List.length r.Log.images);
  match r.Log.images with
  | [ (Log.Fnt_page 7, img, _) ] -> check bool "latest wins" true (Bytes.get img 0 = 'y')
  | _ -> Alcotest.fail "unexpected images"

let test_record_size_accounting () =
  (* The paper: a one-data-page record occupies 7 sectors (5 overhead +
     twice the data). *)
  let _device, layout = mk () in
  check int "7 sectors for 1 page"
    7
    (Log.record_total_sectors layout [ leader_unit layout 1234 'z' ]);
  (* 14 data pages -> 33 sectors, the paper's typical high-load record. *)
  let units = List.init 14 (fun i -> leader_unit layout (2000 + i) 'q') in
  check int "33 sectors for 14 pages" 33 (Log.record_total_sectors layout units)

let test_torn_write_drops_only_last_record () =
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 1 'a' ] : int);
  ignore (Log.append log [ fnt_unit layout 2 'b' ] : int);
  (* Cut the third record short before its end page can be written: the
     record has 4 data sectors, so header+blank+header' = 3 sectors, then
     cut mid-data. *)
  Device.plan_write_crash device ~after_sectors:5 ~damage_tail:1;
  (match Log.append log [ fnt_unit layout 3 'c' ] with
  | _ -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write _ -> ());
  let r = Log.recover device layout in
  check int "two committed records survive" 2 r.Log.replayed_records;
  check bool "torn record absent" true
    (find_image r.Log.images (Log.Fnt_page 3) = None)

let test_torn_write_after_end_page_commits () =
  let device, layout = mk () in
  let log = attach device layout in
  (* Prime the log so the pointer pages are not rewritten during the
     crashing append (a fresh log writes them on entering third 0). *)
  ignore (Log.append log [ fnt_unit layout 1 'a' ] : int);
  (* The end page is written at record offset 3+n; cutting during the
     data copies means the record is complete. *)
  let n = layout.Layout.params.Params.fnt_page_sectors in
  Device.plan_write_crash device ~after_sectors:(3 + n + 1 + 1) ~damage_tail:1;
  (match Log.append log [ fnt_unit layout 9 'k' ] with
  | _ -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write _ -> ());
  let r = Log.recover device layout in
  check int "both records committed despite torn copies" 2 r.Log.replayed_records;
  match find_image r.Log.images (Log.Fnt_page 9) with
  | Some img -> check bool "content" true (Bytes.get img 0 = 'k')
  | None -> Alcotest.fail "image missing"

let test_damage_tolerance_header_and_data () =
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 4 'm' ] : int);
  let body = layout.Layout.log_start + 3 in
  (* Damage the primary header and the first primary data sector: both are
     correctable from their copies. *)
  Device.damage device body;
  Device.damage device (body + 3);
  let r = Log.recover device layout in
  check int "still recovered" 1 r.Log.replayed_records;
  check bool "corrections counted" true (r.Log.corrected_sectors >= 2)

(* A record of several units whose middle primary data sector is
   damaged: replay reads that sector's copy into the same place of its
   unit's image, counts one correction, and returns every unit image as
   it was appended. *)
let test_damaged_middle_data_sector () =
  let device, layout = mk () in
  let log = attach device layout in
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let varied kind sectors seed =
    {
      Log.kind;
      image = Bytes.init (sectors * sb) (fun i -> Char.chr (((i * 31) + seed) land 0xff));
    }
  in
  let k = layout.Layout.params.Params.fnt_page_sectors in
  let units =
    [
      varied (Log.Fnt_page 3) k 1;
      varied (Log.Leader_page 5000) 1 2;
      varied (Log.Fnt_page 9) k 3;
      varied (Log.Leader_page 5001) 1 4;
    ]
  in
  ignore (Log.append log units : int);
  let n = (2 * k) + 2 in
  (* Classic layout: header, blank, header', then the primary data. *)
  Device.damage device (layout.Layout.log_start + 3 + 3 + (n / 2));
  let r = Log.recover device layout in
  check int "replayed" 1 r.Log.replayed_records;
  check int "one correction" 1 r.Log.corrected_sectors;
  List.iter
    (fun u ->
      match find_image r.Log.images u.Log.kind with
      | Some img -> check bool "unit image as appended" true (Bytes.equal u.Log.image img)
      | None -> Alcotest.fail "unit image missing")
    units

let test_damage_two_adjacent_sectors () =
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 4 'm' ] : int);
  let body = layout.Layout.log_start + 3 in
  (* The failure model: 1-2 consecutive sectors. Damage header+blank. *)
  Device.damage device body;
  Device.damage device (body + 1);
  let r = Log.recover device layout in
  check int "recovered via header copy" 1 r.Log.replayed_records

let test_pointer_replica_used () =
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 2 'p' ] : int);
  Device.damage device layout.Layout.log_start;
  let r = Log.recover device layout in
  check int "recovered from pointer copy" 1 r.Log.replayed_records

let test_thirds_flush_callback_and_wrap () =
  let device, layout = mk () in
  let entered = ref [] in
  let log = attach ~entered device layout in
  let third = (layout.Layout.log_sectors - 3) / 3 in
  let unit = fnt_unit layout 1 'w' in
  let size = Log.record_total_sectors layout [ unit ] in
  (* Write enough records to wrap the whole log twice. *)
  let records = 2 * 3 * third / size in
  for _ = 1 to records do
    ignore (Log.append log [ unit ] : int)
  done;
  let st = Log.stats log in
  check int "records counted" records st.Log.records;
  check bool "entered thirds several times" true (st.Log.third_entries >= 5);
  check bool "callback saw all thirds" true
    (List.sort_uniq compare !entered = [ 0; 1; 2 ]);
  (* After all that wrapping, the chain must still recover cleanly. *)
  let r = Log.recover device layout in
  check bool "some records recovered" true (r.Log.replayed_records > 0);
  check bool "images intact" true
    (match r.Log.images with
    | [ (Log.Fnt_page 1, img, _) ] -> Bytes.get img 0 = 'w'
    | _ -> false)

let test_utilization_five_sixths () =
  (* §5.3: the simple thirds algorithm averages 5/6 of the log in use.
     Live span = distance from the oldest pointed-to record to the write
     head; averaged over a long run it should be near 5/6 of the body. *)
  let device, layout = mk () in
  let log = attach device layout in
  let unit = fnt_unit layout 1 'u' in
  let size = Log.record_total_sectors layout [ unit ] in
  let body = 3 * ((layout.Layout.log_sectors - 3) / 3) in
  let samples = ref [] in
  for _ = 1 to 8 * body / size do
    ignore (Log.append log [ unit ] : int);
    let r = Log.recover device layout in
    let oldest = match r.Log.surviving with (o, _) :: _ -> o | [] -> 0 in
    let live = r.Log.next_write_off - oldest in
    let live = if live <= 0 then live + body else live in
    samples := float_of_int live :: !samples
  done;
  let mean = List.fold_left ( +. ) 0.0 !samples /. float_of_int (List.length !samples) in
  let frac = mean /. float_of_int body in
  check bool
    (Printf.sprintf "mean utilization %.2f within [0.55, 0.95]" frac)
    true
    (frac > 0.55 && frac < 0.95)

let test_thirds_entered_by () =
  let device, layout = mk () in
  let log = attach device layout in
  let third = (layout.Layout.log_sectors - 3) / 3 in
  (* Fresh log: current third is 0 and the write offset is 0, so a small
     record stays inside it... *)
  check (Alcotest.list int) "small record enters nothing new" []
    (Log.thirds_entered_by log ~record_sectors:9);
  (* ...while a record reaching past the boundary enters third 1. *)
  check (Alcotest.list int) "boundary-crossing record enters third 1" [ 1 ]
    (Log.thirds_entered_by log ~record_sectors:(third + 5));
  (* Fill most of third 0, then watch the prediction match reality. *)
  let unit = fnt_unit layout 1 'p' in
  let size = Log.record_total_sectors layout [ unit ] in
  for _ = 1 to third / size do
    ignore (Log.append log [ unit ] : int)
  done;
  let predicted = Log.thirds_entered_by log ~record_sectors:size in
  let before = (Log.stats log).Log.third_entries in
  ignore (Log.append log [ unit ] : int);
  let entered = (Log.stats log).Log.third_entries - before in
  check int "prediction matches entry count" (List.length predicted) entered

let test_oversized_record_rejected () =
  let device, layout = mk () in
  let log = attach device layout in
  let too_many =
    List.init (Log.max_data_sectors_hard layout + 1) (fun i -> leader_unit layout (3000 + i) 'x')
  in
  match Log.append log too_many with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Units whose every sector differs, so a misplaced sector shows. *)
let patterned_units layout =
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let image sectors seed =
    Bytes.init (sectors * sb) (fun i -> Char.chr (((i * 7) + (i / sb) + seed) land 0xff))
  in
  [
    { Log.kind = Log.Fnt_page 2; image = image layout.Layout.params.Params.fnt_page_sectors 1 };
    { Log.kind = Log.Leader_page 5100; image = image 1 2 };
    { Log.kind = Log.Vam_chunk 0; image = image 1 3 };
  ]

(* Sectors [first, first + count) of the record at body offset 0. *)
let record_sectors device layout ~first ~count =
  Device.read_run device ~sector:(layout.Layout.log_start + 3 + first) ~count

let test_classic_record_layout () =
  let device, layout = mk () in
  let log = attach device layout in
  let units = patterned_units layout in
  ignore (Log.append log units : int);
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let n = List.fold_left (fun a u -> a + Bytes.length u.Log.image) 0 units / sb in
  check int "record size" ((2 * n) + 5) (Log.record_total_sectors layout units);
  let sec i = record_sectors device layout ~first:i ~count:1 in
  check bool "header copy = header" true (Bytes.equal (sec 0) (sec 2));
  check bool "sector 1 is zero" true (Bytes.equal (Bytes.make sb '\000') (sec 1));
  let primary = record_sectors device layout ~first:3 ~count:n in
  check bool "primary data = the unit images in order" true
    (Bytes.equal (Bytes.concat Bytes.empty (List.map (fun u -> u.Log.image) units)) primary);
  check bool "data copy = primary" true
    (Bytes.equal primary (record_sectors device layout ~first:(4 + n) ~count:n));
  let endp = sec (3 + n) in
  check bool "end copy = end" true (Bytes.equal endp (sec (4 + (2 * n))));
  (* End page: magic, special, record number, then a u16 count and one
     u32 CRC per data sector. *)
  check int "listed CRCs" n (Bytes.get_uint16_le endp 20);
  for i = 0 to n - 1 do
    check int
      (Printf.sprintf "CRC of data sector %d" i)
      (Crc32.bytes ~pos:(i * sb) ~len:sb primary)
      (Int32.to_int (Bytes.get_int32_le endp (22 + (4 * i))) land 0xffffffff)
  done

let test_classic_fails_under_track_loss () =
  (* The record format (copies a few sectors apart) cannot survive a
     full-track hit placed over both copies: a limit of the format, which
     tolerates one or two consecutive bad sectors (§5.3). *)
  let device, layout = mk () in
  let log = attach device layout in
  ignore (Log.append log [ fnt_unit layout 7 'x' ] : int);
  let spt = layout.Layout.geom.Geometry.sectors_per_track in
  let body = layout.Layout.log_start + 3 in
  for k = 0 to spt - 1 do
    Device.damage device (body + k)
  done;
  let r = Log.recover device layout in
  check int "record unrecoverable in classic mode" 0 r.Log.replayed_records

(* Recovering a freshly formatted log finds the chain's end at once:
   one pointer read (its first copy is good) and the record header at
   offset 0 and its copy, both blank. No other sector is read. *)
let test_empty_log_recovery_reads () =
  let device, layout = mk () in
  let reads = ref [] in
  Device.set_observer device
    (Some
       (fun ~rw ~sector ~count ->
         if rw = `R then reads := (sector, count) :: !reads));
  let r = Log.recover device layout in
  Device.set_observer device None;
  check int "nothing replayed" 0 r.Log.replayed_records;
  let body = layout.Layout.log_start + 3 in
  check
    Alcotest.(list (pair int int))
    "pointer, header, header copy"
    [ (layout.Layout.log_start, 1); (body, 1); (body + 2, 1) ]
    (List.rev !reads)

let suite =
  [
    ("append and recover one", `Quick, test_append_and_recover_one);
    ("record numbering chain", `Quick, test_record_numbering_chain);
    ("later record shadows earlier", `Quick, test_later_record_shadows_earlier);
    ("record size accounting (7 and 33)", `Quick, test_record_size_accounting);
    ("torn write drops only last record", `Quick, test_torn_write_drops_only_last_record);
    ("torn write after end page commits", `Quick, test_torn_write_after_end_page_commits);
    ("damage tolerance header+data", `Quick, test_damage_tolerance_header_and_data);
    ("damage two adjacent sectors", `Quick, test_damage_two_adjacent_sectors);
    ("damaged middle data sector of a multi-unit record", `Quick,
      test_damaged_middle_data_sector);
    ("pointer replica used", `Quick, test_pointer_replica_used);
    ("thirds flush and wrap", `Quick, test_thirds_flush_callback_and_wrap);
    ("log utilization ~5/6", `Quick, test_utilization_five_sixths);
    ("thirds_entered_by predicts entries", `Quick, test_thirds_entered_by);
    ("oversized record rejected", `Quick, test_oversized_record_rejected);
    ("classic record layout", `Quick, test_classic_record_layout);
    ("classic fails under track loss", `Quick, test_classic_fails_under_track_loss);
    ("an empty log costs the pointer and one header pair", `Quick,
      test_empty_log_recovery_reads);
  ]
