open Cedar_util
open Cedar_disk

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  (clock, Device.create ~clock geom)

let sector_of_string geom s =
  let b = Bytes.make geom.Geometry.sector_bytes '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let test_geometry_chs_roundtrip () =
  let g = Geometry.small_test in
  for s = 0 to Geometry.total_sectors g - 1 do
    let chs = Geometry.to_chs g s in
    check int "roundtrip" s (Geometry.of_chs g chs)
  done

let test_geometry_seek_curve () =
  let g = Geometry.trident_t300 in
  check int "zero distance" 0 (Geometry.seek_us g 0);
  check int "single cylinder" g.Geometry.min_seek_us (Geometry.seek_us g 1);
  let full = Geometry.seek_us g (g.Geometry.cylinders - 1) in
  check bool "full stroke ~max" true (abs (full - g.Geometry.max_seek_us) < 100);
  check bool "monotone" true
    (Geometry.seek_us g 10 < Geometry.seek_us g 100
    && Geometry.seek_us g 100 < Geometry.seek_us g 700)

let test_geometry_timing_constants () =
  let g = Geometry.trident_t300 in
  check int "rotation 16.6ms" 16_666 (Geometry.rotation_us g);
  check bool "capacity ~300MB" true
    (abs (Geometry.capacity_bytes g - 300_000_000) < 10_000_000)

(* ------------------------------------------------------------------ *)
(* Device data path                                                    *)

let test_device_read_write () =
  let _, d = mk () in
  let g = Device.geometry d in
  let payload = sector_of_string g "hello sector" in
  Device.write d 17 payload;
  check Alcotest.string "read back" (Bytes.to_string payload)
    (Bytes.to_string (Device.read d 17));
  (* Unwritten sectors read as zeroes. *)
  check int "zero fill" 0 (Char.code (Bytes.get (Device.read d 18) 0))

let test_device_run_io () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  let data = Bytes.create (3 * sb) in
  for i = 0 to (3 * sb) - 1 do
    Bytes.set data i (Char.chr (i mod 256))
  done;
  Device.write_run d ~sector:10 data;
  let back = Device.read_run d ~sector:10 ~count:3 in
  check bool "run roundtrip" true (Bytes.equal data back);
  (* A run is one I/O. *)
  let st = Device.stats d in
  check int "two ios total" 2 st.Iostats.ios;
  check int "three sectors each way" 3 st.Iostats.sectors_read

(* [read_run_into] is [read_run]'s command: on two devices that see the
   same writes, the same reads return the same bytes, charge the same
   stats and time, and a damaged sector raises the same error, leaving
   the caller's buffer as it was. The copy may start at an offset; a run
   that does not fit the buffer from there is refused. *)
let test_read_run_into_matches_read_run () =
  let clock_a, a = mk () and clock_b, b = mk () in
  let sb = (Device.geometry a).Geometry.sector_bytes in
  let data = Bytes.init (6 * sb) (fun i -> Char.chr ((i * 7) land 0xff)) in
  List.iter (fun d -> Device.write_run d ~sector:40 data) [ a; b ];
  let same_stats what =
    check bool (what ^ ": same stats") true (Device.stats a = Device.stats b);
    check int (what ^ ": same clock") (Simclock.now clock_a) (Simclock.now clock_b)
  in
  let fresh = Device.read_run a ~sector:41 ~count:4 in
  let buf = Bytes.make ((4 * sb) + 9) '#' in
  Device.read_run_into b ~sector:41 ~count:4 buf ~pos:9;
  check bool "same bytes at the offset" true (Bytes.equal fresh (Bytes.sub buf 9 (4 * sb)));
  check Alcotest.string "bytes before the offset untouched" "#########" (Bytes.sub_string buf 0 9);
  same_stats "whole run";
  List.iter (fun d -> Device.damage d 43) [ a; b ];
  let error f = match f () with () -> None | exception Device.Error e -> Some e.sector in
  let got_a = error (fun () -> ignore (Device.read_run a ~sector:42 ~count:3 : bytes)) in
  let untouched = Bytes.make (3 * sb) '#' in
  let got_b = error (fun () -> Device.read_run_into b ~sector:42 ~count:3 untouched ~pos:0) in
  check (Alcotest.option int) "read_run: damaged sector" (Some 43) got_a;
  check (Alcotest.option int) "read_run_into: same error" got_a got_b;
  check bool "buffer untouched by the failed read" true
    (Bytes.equal (Bytes.make (3 * sb) '#') untouched);
  same_stats "damaged run";
  List.iter
    (fun (count, pos, len) ->
      match Device.read_run_into b ~sector:40 ~count (Bytes.create len) ~pos with
      | () -> Alcotest.failf "count %d pos %d into %d bytes accepted" count pos len
      | exception Invalid_argument _ -> ())
    [ (0, 0, sb); (1, -1, sb); (1, 1, sb); (3, 0, (3 * sb) - 1) ]

let test_device_timing_advances_clock () =
  let clock, d = mk () in
  let g = Device.geometry d in
  ignore (Device.read d 0);
  let t1 = Simclock.now clock in
  check bool "time moved" true (t1 > 0);
  (* Re-reading the same sector costs about a full revolution. *)
  ignore (Device.read d 0);
  let dt = Simclock.now clock - t1 in
  let rot = Geometry.rotation_us g in
  check bool "lost revolution" true (abs (dt - rot) <= Geometry.sector_time_us g)

let test_device_sequential_cheaper_than_random () =
  let clock, d = mk () in
  let t0 = Simclock.now clock in
  ignore (Device.read_run d ~sector:0 ~count:16);
  let seq = Simclock.now clock - t0 in
  let t0 = Simclock.now clock in
  for i = 0 to 15 do
    ignore (Device.read d (i * 577 mod Geometry.total_sectors (Device.geometry d)))
  done;
  let rand = Simclock.now clock - t0 in
  check bool "sequential much cheaper" true (seq * 4 < rand)

let test_device_damage () =
  let _, d = mk () in
  let g = Device.geometry d in
  Device.damage d 5;
  check bool "is damaged" true (Device.is_damaged d 5);
  (match Device.read d 5 with
  | _ -> Alcotest.fail "expected Error"
  | exception Device.Error { sector = 5; kind = Device.Damaged } -> ());
  (* Rewriting repairs the medium. *)
  Device.write d 5 (sector_of_string g "fixed");
  check bool "healed" false (Device.is_damaged d 5);
  check Alcotest.string "content" "fixed"
    (String.sub (Bytes.to_string (Device.read d 5)) 0 5)

let test_device_write_crash () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  Device.plan_write_crash d ~after_sectors:2 ~damage_tail:1;
  let data = Bytes.make (5 * sb) 'x' in
  (match Device.write_run d ~sector:20 data with
  | () -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write { sector } -> check int "crash point" 22 sector);
  (* First two sectors written, the third damaged, the rest untouched. *)
  check bool "sector 20 written" true (Device.written_ever d 20);
  check bool "sector 21 written" true (Device.written_ever d 21);
  check bool "sector 22 damaged" true (Device.is_damaged d 22);
  check bool "sector 23 untouched" false (Device.written_ever d 23);
  check bool "sector 24 untouched" false (Device.written_ever d 24)

(* The store is written in place, but callers still see copies: a
   buffer given to a write, or returned by a read, is never the stored
   sector itself. *)
let test_store_copy_semantics () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  let data = Bytes.make (3 * sb) 'a' in
  Device.write_run d ~sector:10 data;
  Bytes.fill data 0 (3 * sb) 'z';
  check bool "write buffer mutated after the write" true
    (Bytes.equal (Bytes.make (3 * sb) 'a') (Device.read_run d ~sector:10 ~count:3));
  (* A rewrite lands in the existing buffers, and is copied too. *)
  let data = Bytes.make (3 * sb) 'b' in
  Device.write_run d ~sector:10 data;
  Bytes.fill data 0 (3 * sb) 'y';
  let back = Device.read_run d ~sector:10 ~count:3 in
  check bool "rewrite stored" true (Bytes.equal (Bytes.make (3 * sb) 'b') back);
  Bytes.fill back 0 (3 * sb) 'x';
  check bool "read buffer mutated after the read" true
    (Bytes.equal (Bytes.make (3 * sb) 'b') (Device.read_run d ~sector:10 ~count:3));
  let one = Device.read d 11 in
  Bytes.fill one 0 sb 'w';
  check bool "single-sector read is a copy" true
    (Bytes.equal (Bytes.make sb 'b') (Device.read d 11));
  List.iter
    (fun s ->
      let one = Bytes.make sb 'c' in
      Device.write d s one;
      Bytes.fill one 0 sb 'v';
      check bool
        (Printf.sprintf "single-sector write to sector %d is a copy" s)
        true
        (Bytes.equal (Bytes.make sb 'c') (Device.read d s)))
    [ 11; 40 ]

(* An in-place rewrite interrupted by a crash: the sectors before the
   crash point hold the new data, the crash point is damaged, and the
   sectors after it keep their old data. *)
let test_device_rewrite_crash () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  Device.write_run d ~sector:20 (Bytes.make (5 * sb) 'a');
  Device.plan_write_crash d ~after_sectors:2 ~damage_tail:1;
  (match Device.write_run d ~sector:20 (Bytes.make (5 * sb) 'b') with
  | () -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write { sector } -> check int "crash point" 22 sector);
  let holds s c = Bytes.equal (Bytes.make sb c) (Device.read d s) in
  check bool "sector 20 rewritten" true (holds 20 'b');
  check bool "sector 21 rewritten" true (holds 21 'b');
  check bool "sector 22 damaged" true (Device.is_damaged d 22);
  check bool "sector 23 keeps its old data" true (holds 23 'a');
  check bool "sector 24 keeps its old data" true (holds 24 'a')

(* Zero and garbage tears over a sector that already holds data leave
   exactly what they leave on a never-written one. *)
let test_tear_over_existing_sector () =
  let sb = Geometry.small_test.Geometry.sector_bytes in
  let torn ~tear ~prior =
    let _, d = mk () in
    if prior then Device.write_run d ~sector:30 (Bytes.make (2 * sb) 'a');
    Device.plan_write_crash_tear d ~after_sectors:0 ~tear;
    (match Device.write_run d ~sector:30 (Bytes.make (2 * sb) 'b') with
    | () -> Alcotest.fail "expected crash"
    | exception Device.Crash_during_write { sector } -> check int "crash point" 30 sector);
    check bool "torn sector readable" false (Device.is_damaged d 30);
    check bool "next sector untouched" true
      (Bytes.equal (Bytes.make sb (if prior then 'a' else '\000')) (Device.read d 31));
    Device.read d 30
  in
  check bool "zero tear leaves zeroes" true
    (Bytes.equal (Bytes.make sb '\000') (torn ~tear:Device.Tear_zero ~prior:true));
  let pattern = torn ~tear:Device.Tear_garbage ~prior:false in
  check bool "garbage is neither old, new nor zero" true
    (List.for_all
       (fun c -> not (Bytes.equal (Bytes.make sb c) pattern))
       [ 'a'; 'b'; '\000' ]);
  check bool "garbage tear leaves the garbage pattern" true
    (Bytes.equal pattern (torn ~tear:Device.Tear_garbage ~prior:true))

(* ------------------------------------------------------------------ *)
(* Transfer arithmetic                                                 *)

(* A per-sector reference for the transfer charge: walk the run through
   [Geometry.to_chs], charging a track-to-track seek and half a
   revolution where the cylinder changes, and a head switch plus one
   sector of skew where only the head does. Returns the transfer time
   and the cylinder and head crossings. *)
let reference_transfer g ~sector ~count =
  let sector_t = Geometry.sector_time_us g and rot = Geometry.rotation_us g in
  let us = ref 0 and cyls = ref 0 and heads = ref 0 in
  for i = 0 to count - 1 do
    let s = sector + i in
    if i > 0 then begin
      let here = Geometry.to_chs g s and prev = Geometry.to_chs g (s - 1) in
      if here.Geometry.cyl <> prev.Geometry.cyl then begin
        incr cyls;
        us := !us + Geometry.seek_us g 1 + (rot / 2)
      end
      else if here.Geometry.head <> prev.Geometry.head then begin
        incr heads;
        us := !us + g.Geometry.head_switch_us + sector_t
      end
    end;
    us := !us + sector_t
  done;
  (!us, !cyls, !heads)

let test_transfer_matches_reference () =
  List.iter
    (fun (label, g) ->
      let _, d = mk ~geom:g () in
      let rng = Rng.create 2024 in
      let spt = g.Geometry.sectors_per_track in
      let spc = Geometry.sectors_per_cylinder g in
      let total = Geometry.total_sectors g in
      let cyls = ref 0 and heads = ref 0 in
      for k = 1 to 1_000 do
        (* Half the runs start within two tracks of a cylinder's end, so
           cylinder crossings are common; the rest start anywhere. *)
        let sector, count =
          if k mod 2 = 0 then
            let c = 1 + Rng.int rng (g.Geometry.cylinders - 1) in
            ((c * spc) - 1 - Rng.int rng (2 * spt), 1 + Rng.int rng (3 * spt))
          else (Rng.int rng (total - (2 * spt)), 1 + Rng.int rng (2 * spt))
        in
        let before = (Device.stats d).Iostats.transfer_us in
        ignore (Device.read_run d ~sector ~count : bytes);
        let us, c, h = reference_transfer g ~sector ~count in
        cyls := !cyls + c;
        heads := !heads + h;
        check int
          (Printf.sprintf "%s: transfer of %d sectors at %d" label count sector)
          us
          ((Device.stats d).Iostats.transfer_us - before)
      done;
      check bool (label ^ ": some runs cross a cylinder") true (!cyls > 0);
      check bool (label ^ ": some runs switch heads") true (!heads > 0))
    [ ("small_test", Geometry.small_test); ("trident_t300", Geometry.trident_t300) ]

(* A run that crosses into the next cylinder leaves the arm there: the
   next command seeks from the new cylinder, not the one it started on. *)
let test_seek_after_cylinder_crossing () =
  let g = Geometry.small_test in
  let spc = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  ignore (Device.read_run d ~sector:(spc - 1) ~count:2 : bytes);
  check int "no seek to start on cylinder 0" 0 (Device.stats d).Iostats.seeks;
  let before = (Device.stats d).Iostats.seek_us in
  ignore (Device.read d (5 * spc) : bytes);
  check int "seek from cylinder 1 to 5" (Geometry.seek_us g 4)
    ((Device.stats d).Iostats.seek_us - before)

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)

let test_labels () =
  let _, d = mk () in
  let g = Device.geometry d in
  let l = { Label.uid = 99L; page = 3; kind = Label.Data } in
  Device.write_labels d ~sector:7 [ l ];
  check bool "label read" true (Label.equal l (Device.read_label d 7));
  check bool "default free" true (Label.equal Label.free (Device.read_label d 8));
  (* Verified ops succeed with the right label... *)
  Device.verified_write_run d ~sector:7 ~expect:[ l ] (sector_of_string g "data!");
  let b = Device.verified_read d 7 ~expect:l in
  check Alcotest.string "verified read" "data!" (String.sub (Bytes.to_string b) 0 5);
  (* ...and fail on a mismatch (the wild-write detector). *)
  let wrong = { l with Label.page = 4 } in
  match Device.verified_read d 7 ~expect:wrong with
  | _ -> Alcotest.fail "expected label mismatch"
  | exception Device.Error { kind = Device.Label_mismatch _; sector = 7 } -> ()

let test_label_codec_roundtrip () =
  let l = { Label.uid = 0x0123456789abcdefL; page = 77; kind = Label.Fnt } in
  check bool "roundtrip" true (Label.equal l (Label.decode (Label.encode l)))

let test_scan_labels () =
  let _, d = mk () in
  Device.write_labels d ~sector:3 [ { Label.uid = 1L; page = 0; kind = Label.Header } ];
  Device.damage d 5;
  let seen = ref [] in
  Device.scan_labels d ~from:0 ~count:10 (fun s l -> seen := (s, l) :: !seen);
  let seen = List.rev !seen in
  check int "all sectors visited" 10 (List.length seen);
  (match List.assoc 3 seen with
  | Some l -> check bool "labelled" true (l.Label.uid = 1L)
  | None -> Alcotest.fail "sector 3 readable");
  (match List.assoc 5 seen with
  | None -> ()
  | Some _ -> Alcotest.fail "damaged sector must scan as None");
  (* Scanning is batched by track, not per-sector I/Os. *)
  check bool "few ios" true ((Device.stats d).Iostats.ios <= 3)

let test_dump_load_roundtrip () =
  let _, d = mk () in
  let g = Device.geometry d in
  Device.write d 4 (sector_of_string g "persisted");
  Device.write_labels d ~sector:4 [ { Label.uid = 5L; page = 1; kind = Label.Data } ];
  Device.damage d 9;
  let file = Filename.temp_file "cedar" ".img" in
  let oc = open_out_bin file in
  Device.dump d oc;
  close_out oc;
  let ic = open_in_bin file in
  let d' = Device.load ~clock:(Simclock.create ()) ic in
  close_in ic;
  Sys.remove file;
  check Alcotest.string "data survived" "persisted"
    (String.sub (Bytes.to_string (Device.read d' 4)) 0 9);
  check bool "label survived" true
    (Label.equal (Device.read_label d' 4) { Label.uid = 5L; page = 1; kind = Label.Data });
  check bool "damage survived" true (Device.is_damaged d' 9)

(* ------------------------------------------------------------------ *)
(* The chunked image                                                   *)

(* One distinct byte per sector, so a sector stored at the wrong offset
   shows. *)
let patterned sb ~first ~count =
  Bytes.init (count * sb) (fun i -> Char.chr (((first + (i / sb)) * 7 + 1) land 0xff))

let test_run_across_chunk_boundary () =
  let _, d = mk () in
  let sb = (Device.geometry d).Geometry.sector_bytes in
  Device.write_run d ~sector:60 (patterned sb ~first:60 ~count:10);
  let back = Device.read_run d ~sector:0 ~count:128 in
  for s = 0 to 127 do
    let want =
      if s >= 60 && s < 70 then patterned sb ~first:s ~count:1 else Bytes.make sb '\000'
    in
    check bool (Printf.sprintf "sector %d" s) true (Bytes.equal want (Bytes.sub back (s * sb) sb))
  done;
  check bool "a run straddling the boundary reads back" true
    (Bytes.equal (patterned sb ~first:62 ~count:4) (Device.read_run d ~sector:62 ~count:4))

let test_unwritten_sector_in_allocated_chunk () =
  let _, d = mk () in
  let sb = (Device.geometry d).Geometry.sector_bytes in
  Device.write d 5 (patterned sb ~first:5 ~count:1);
  check bool "sector 5 written" true (Device.written_ever d 5);
  check bool "sector 6 never written" false (Device.written_ever d 6);
  check bool "sector 6 reads zeroes" true (Bytes.equal (Bytes.make sb '\000') (Device.read d 6));
  let chunk = Device.read_run d ~sector:0 ~count:64 in
  for s = 0 to 63 do
    check bool
      (Printf.sprintf "sector %d of the chunk" s)
      true
      (Bytes.equal
         (if s = 5 then patterned sb ~first:5 ~count:1 else Bytes.make sb '\000')
         (Bytes.sub chunk (s * sb) sb));
    check bool (Printf.sprintf "sector %d written" s) (s = 5) (Device.written_ever d s)
  done;
  check bool "out of range is not written" false (Device.written_ever d (-1))

(* A write crash whose budget ends inside a chunk stores only the
   sectors before the crash point; the rest of that chunk, and of the
   run in the next chunk, keep what they held. *)
let test_crash_budget_mid_chunk () =
  let sb = Geometry.small_test.Geometry.sector_bytes in
  let crashed ~budget =
    let _, d = mk () in
    Device.write_run d ~sector:56 (Bytes.make (12 * sb) 'a');
    Device.plan_write_crash_tear d ~after_sectors:budget ~tear:Device.Tear_none;
    (match Device.write_run d ~sector:60 (Bytes.make (8 * sb) 'b') with
    | () -> Alcotest.fail "expected crash"
    | exception Device.Crash_during_write { sector } ->
      check int "crash point" (60 + budget) sector);
    d
  in
  List.iter
    (fun budget ->
      let d = crashed ~budget in
      for s = 56 to 71 do
        let want = if s >= 60 && s < 60 + budget then 'b' else if s < 68 then 'a' else '\000' in
        check bool
          (Printf.sprintf "budget %d: sector %d" budget s)
          true
          (Bytes.equal (Bytes.make sb want) (Device.read d s));
        check bool
          (Printf.sprintf "budget %d: sector %d written" budget s)
          (s < 68) (Device.written_ever d s)
      done)
    [ 2; 5 ]

let dump_to_string d =
  let file = Filename.temp_file "cedar" ".img" in
  let oc = open_out_bin file in
  Device.dump d oc;
  close_out oc;
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

let load_string s =
  let file = Filename.temp_file "cedar" ".img" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s);
  let d = In_channel.with_open_bin file (Device.load ~clock:(Simclock.create ())) in
  Sys.remove file;
  d

(* The sector numbers of an image's data records, in file order. *)
let image_sectors image =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string image) in
  for _ = 1 to 10 do
    ignore (Bytebuf.Reader.u32 r : int)
  done;
  List.init (Bytebuf.Reader.u32 r) (fun _ ->
      let s = Bytebuf.Reader.u32 r in
      ignore (Bytebuf.Reader.raw r Geometry.small_test.Geometry.sector_bytes : bytes);
      s)

let test_dump_ascending_and_stable () =
  let _, d = mk () in
  let sb = (Device.geometry d).Geometry.sector_bytes in
  List.iter
    (fun s -> Device.write d s (patterned sb ~first:s ~count:1))
    [ 900; 3; 130; 64; 63; 2000; 65 ];
  Device.write_labels d ~sector:63 [ { Label.uid = 9L; page = 2; kind = Label.Data } ];
  Device.damage d 700;
  let first = dump_to_string d in
  check (Alcotest.list int) "records ascending" [ 3; 63; 64; 65; 130; 900; 2000 ]
    (image_sectors first);
  let loaded = load_string first in
  List.iter
    (fun s ->
      check bool (Printf.sprintf "sector %d reloaded" s) true
        (Bytes.equal (patterned sb ~first:s ~count:1) (Device.read loaded s)))
    [ 3; 63; 64; 65; 130; 900; 2000 ];
  check bool "unwritten sector reloaded as zeroes" true
    (Bytes.equal (Bytes.make sb '\000') (Device.read loaded 62));
  let again = dump_to_string loaded in
  check bool "dump, load, dump is byte-identical" true (String.equal first again)

(* An image whose records come in descending order: the store must not
   depend on the order a dump happened to list them in. *)
let descending_image () =
  let g = Geometry.small_test in
  let w = Bytebuf.Writer.create () in
  List.iter (Bytebuf.Writer.u32 w)
    [
      0x43445631;
      g.Geometry.cylinders;
      g.Geometry.heads;
      g.Geometry.sectors_per_track;
      g.Geometry.sector_bytes;
      g.Geometry.rpm;
      g.Geometry.min_seek_us;
      g.Geometry.avg_seek_us;
      g.Geometry.max_seek_us;
      g.Geometry.head_switch_us;
    ];
  let sectors = [ 1000; 64; 63; 7 ] in
  Bytebuf.Writer.u32 w (List.length sectors);
  List.iter
    (fun s ->
      Bytebuf.Writer.u32 w s;
      Bytebuf.Writer.raw w (patterned g.Geometry.sector_bytes ~first:s ~count:1))
    sectors;
  Bytebuf.Writer.u32 w 0;
  Bytebuf.Writer.u32 w 0;
  Bytes.to_string (Bytebuf.Writer.contents w)

let test_load_descending_records () =
  let d = load_string (descending_image ()) in
  let sb = (Device.geometry d).Geometry.sector_bytes in
  List.iter
    (fun s ->
      check bool (Printf.sprintf "sector %d" s) true
        (Bytes.equal (patterned sb ~first:s ~count:1) (Device.read d s));
      check bool (Printf.sprintf "sector %d written" s) true (Device.written_ever d s))
    [ 1000; 64; 63; 7 ];
  check bool "sector 62 zero" true (Bytes.equal (Bytes.make sb '\000') (Device.read d 62));
  check (Alcotest.list int) "dumped ascending" [ 7; 63; 64; 1000 ]
    (image_sectors (dump_to_string d))

let test_observer () =
  let _, d = mk () in
  let g = Device.geometry d in
  let events = ref [] in
  Device.set_observer d (Some (fun ~rw ~sector ~count -> events := (rw, sector, count) :: !events));
  Device.write d 3 (sector_of_string g "x");
  ignore (Device.read d 3);
  Device.set_observer d None;
  ignore (Device.read d 3);
  check int "two observed events" 2 (List.length !events)

let test_timing_invariants () =
  let clock, d = mk () in
  let g = Device.geometry d in
  let rng = Rng.create 17 in
  for _ = 1 to 200 do
    let s = Rng.int rng (Geometry.total_sectors g) in
    if Rng.bool rng then ignore (Device.read d s)
    else Device.write d s (Bytes.make g.Geometry.sector_bytes 'x')
  done;
  let st = Device.stats d in
  check bool "busy time <= elapsed" true (st.Iostats.busy_us <= Simclock.now clock);
  check bool "busy = seek+rot+xfer" true
    (st.Iostats.busy_us = st.Iostats.seek_us + st.Iostats.rotation_us + st.Iostats.transfer_us);
  check int "ios = reads + writes" st.Iostats.ios (st.Iostats.reads + st.Iostats.writes)

let test_same_cylinder_no_seek () =
  let _, d = mk () in
  let g = Device.geometry d in
  ignore (Device.read d 0);
  let seeks0 = (Device.stats d).Iostats.seeks in
  (* stay within cylinder 0 *)
  for s = 1 to Geometry.sectors_per_cylinder g - 1 do
    ignore (Device.read d s)
  done;
  check int "no arm movement within a cylinder" seeks0 (Device.stats d).Iostats.seeks

(* ------------------------------------------------------------------ *)
(* Request queue: scheduling policies                                  *)

(* Hand-computed elevator service order. Head starts at cylinder 0,
   sweeping up; requests arrive for cylinders 10, 2, 5 (in that order).
   The elevator sweeps 0 -> 2 -> 5 -> 10 while FIFO pays 10 -> 2 -> 5,
   so the totals are exact, known seek sums. *)
let test_elevator_hand_computed () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let run policy =
    let _, d = mk () in
    Device.set_queue d ~policy ~depth:4;
    List.iter (fun c -> ignore (Device.read d (c * per_cyl))) [ 10; 2; 5 ];
    ignore (Device.busy_until d : int);
    (Device.stats d).Iostats.seek_us
  in
  let sk = Geometry.seek_us g in
  check int "elevator: 0->2->5->10" (sk 2 + sk 3 + sk 5) (run Device.Elevator);
  check int "sstf picks the same sweep here" (sk 2 + sk 3 + sk 5)
    (run Device.Sstf);
  check int "fifo: 0->10->2->5" (sk 10 + sk 8 + sk 3) (run Device.Fifo);
  check bool "elevator strictly beats fifo" true
    (sk 2 + sk 3 + sk 5 < sk 10 + sk 8 + sk 3)

(* SSTF aging: a request at the far edge of the disk must not starve
   behind a stream of near-cylinder requests. With the aging bound it is
   serviced within [sstf_age_limit] passes, i.e. well before the tail of
   the stream; without it, nearest-first would service it dead last. *)
let test_sstf_starvation_bound () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  Device.set_queue d ~policy:Device.Sstf ~depth:4;
  let read s = snd (Device.track d (fun () -> ignore (Device.read d s))) in
  (* Request 1: the far edge. Then 40 requests hugging cylinder 0. *)
  let far = read ((g.Geometry.cylinders - 1) * per_cyl) in
  let near = Array.init 40 (fun i -> read ((i + 1) mod per_cyl)) in
  ignore (Device.busy_until d : int);
  let done_at c = Device.completed_at d c in
  (* Service completion times are monotone in service order, so "done
     before request 20" means the far request was picked within ~12
     services (queue depth 4 + aging bound 8) of arriving. *)
  check bool "far request services within the aging bound" true
    (done_at far < done_at near.(18));
  check bool "far request is not serviced last" true
    (done_at far < done_at near.(39))

(* The engine pin: depth only decides who owns the clock. The same
   command stream on a synchronous device (depth 0) and on an
   own-timeline device (depth 1) charges identical mechanics, and the
   synchronous clock ends exactly at the own-timeline busy horizon. *)
let test_own_timeline_matches_sync () =
  let run depth =
    let clock = Simclock.create () in
    let d = Device.create ~depth ~clock Geometry.small_test in
    let g = Device.geometry d in
    let rng = Rng.create 99 in
    for _ = 1 to 200 do
      let s = Rng.int rng (Geometry.total_sectors g) in
      if Rng.bool rng then ignore (Device.read d s)
      else Device.write d s (Bytes.make g.Geometry.sector_bytes 'q')
    done;
    (Simclock.now clock, Device.busy_until d, Iostats.copy (Device.stats d))
  in
  let now_s, busy_s, st_s = run 0 in
  let now_o, busy_o, st_o = run 1 in
  check bool "the device did real work" true (now_s > 0);
  check int "own timeline leaves the shared clock alone" 0 now_o;
  check int "sync clock = own-timeline busy_until" now_s busy_o;
  check int "sync busy_until is the clock" now_s busy_s;
  check bool "iostats identical" true (st_s = st_o)

(* A full queue blocks the host: the depth cap forces a service to free
   a slot, so occupancy never exceeds the configured depth. *)
let test_queue_depth_cap () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  Device.set_queue d ~policy:Device.Elevator ~depth:3;
  for i = 0 to 9 do
    ignore (Device.read d (i * 7 mod (per_cyl * 4)));
    check bool "occupancy bounded by depth" true (Device.queue_length d <= 3)
  done;
  ignore (Device.busy_until d : int);
  check int "drained" 0 (Device.queue_length d);
  check int "every command charged" 10 (Device.stats d).Iostats.reads

(* Completions are held by their waiters, never by the device: over a
   long queued run, once the callers drop them, only the completions of
   requests still in the queue stay reachable. *)
let test_completions_not_retained () =
  let g = Geometry.small_test in
  let _, d = mk () in
  Device.set_queue d ~policy:Device.Elevator ~depth:4;
  let n = 20_000 in
  let held = Weak.create n in
  for i = 0 to n - 1 do
    let (), c =
      Device.track d (fun () ->
          ignore (Device.read d (i * 7919 mod Geometry.total_sectors g)))
    in
    Weak.set held i (Some c)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check held i then incr live
  done;
  check bool
    (Printf.sprintf "%d of %d completions reachable, queue holds %d" !live n
       (Device.queue_length d))
    true
    (!live <= Device.queue_length d)

(* The request queue against a list model of its policies: the model
   keeps pending requests in a list in issue order and picks as the
   device always has (FIFO: the oldest; SSTF: the oldest passed over 8
   times, else the nearest cylinder; elevator: the nearest ahead of the
   arm in the sweep's direction, reversing when none is; every tie to
   the earliest issued; a lone request is taken without turning the
   sweep). A seeded stream of runs, waits on one request and full
   drains must be serviced in the model's order under each policy, at
   depths 2 to 8. Service order is read back from the completions: each
   service ends after the one before it. *)
type model_req = { m_id : int; m_cyl : int; m_last_cyl : int; mutable m_passes : int }

let queue_order_run seed =
  let rng = Rng.create seed in
  let policy = [| Device.Fifo; Device.Sstf; Device.Elevator |].(Rng.int rng 3) in
  let depth = 2 + Rng.int rng 7 in
  let g = Geometry.small_test in
  let spc = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  Device.set_queue d ~policy ~depth;
  let pending = ref [] and head = ref 0 and up = ref true and order = ref [] in
  let pick () =
    let dist r = abs (r.m_cyl - !head) in
    let nearest = function
      | first :: rest -> List.fold_left (fun b r -> if dist r < dist b then r else b) first rest
      | [] -> assert false
    in
    match !pending with
    | [ r ] -> r
    | rs -> (
      match policy with
      | Device.Fifo -> List.hd rs
      | Device.Sstf -> (
        match List.filter (fun r -> r.m_passes >= 8) rs with
        | aged :: _ -> aged
        | [] -> nearest rs)
      | Device.Elevator -> (
        let ahead up = List.filter (fun r -> if up then r.m_cyl >= !head else r.m_cyl <= !head) rs in
        match ahead !up with
        | [] ->
          up := not !up;
          nearest (match ahead !up with [] -> rs | l -> l)
        | cands -> nearest cands))
  in
  let service_next () =
    let r = pick () in
    pending := List.filter (fun x -> x != r) !pending;
    List.iter (fun x -> x.m_passes <- x.m_passes + 1) !pending;
    head := r.m_last_cyl;
    order := r.m_id :: !order
  in
  let completions = ref [] in
  for id = 0 to 199 do
    match Rng.int rng 10 with
    | 0 when !completions <> [] ->
      (* Wait for one earlier request. *)
      let k, c = List.nth !completions (Rng.int rng (List.length !completions)) in
      ignore (Device.completed_at d c : int);
      while List.exists (fun r -> r.m_id = k) !pending do
        service_next ()
      done
    | 1 ->
      ignore (Device.busy_until d : int);
      while !pending <> [] do
        service_next ()
      done
    | _ ->
      let count = 1 + Rng.int rng 3 in
      let sector = Rng.int rng (Geometry.total_sectors g - count) in
      while List.length !pending >= depth do
        service_next ()
      done;
      pending :=
        !pending
        @ [ { m_id = id; m_cyl = sector / spc; m_last_cyl = (sector + count - 1) / spc; m_passes = 0 } ];
      let (), c = Device.track d (fun () -> ignore (Device.read_run d ~sector ~count)) in
      completions := (id, c) :: !completions
  done;
  ignore (Device.busy_until d : int);
  while !pending <> [] do
    service_next ()
  done;
  let serviced =
    List.map (fun (id, c) -> (Device.completed_at d c, id)) !completions
    |> List.sort compare |> List.map snd
  in
  serviced = List.rev !order

let prop_queue_matches_list_model =
  QCheck.Test.make ~name:"request queue services in the list model's order" ~count:200
    (QCheck.int_bound 1_000_000) queue_order_run

let suite =
  [
    ("geometry chs roundtrip", `Quick, test_geometry_chs_roundtrip);
    ("geometry seek curve", `Quick, test_geometry_seek_curve);
    ("geometry timing constants", `Quick, test_geometry_timing_constants);
    ("device read/write", `Quick, test_device_read_write);
    ("device run io", `Quick, test_device_run_io);
    ("device read_run_into matches read_run", `Quick, test_read_run_into_matches_read_run);
    ("device timing advances clock", `Quick, test_device_timing_advances_clock);
    ("device sequential vs random", `Quick, test_device_sequential_cheaper_than_random);
    ("device damage", `Quick, test_device_damage);
    ("device write crash", `Quick, test_device_write_crash);
    ("store keeps copy semantics", `Quick, test_store_copy_semantics);
    ("in-place rewrite crash", `Quick, test_device_rewrite_crash);
    ("tears over an existing sector", `Quick, test_tear_over_existing_sector);
    ("transfer matches the chs reference", `Quick, test_transfer_matches_reference);
    ("seek after a cylinder crossing", `Quick, test_seek_after_cylinder_crossing);
    ("labels verify", `Quick, test_labels);
    ("label codec", `Quick, test_label_codec_roundtrip);
    ("scan labels", `Quick, test_scan_labels);
    ("dump/load", `Quick, test_dump_load_roundtrip);
    ("chunked: run across a chunk boundary", `Quick, test_run_across_chunk_boundary);
    ("chunked: unwritten sector in an allocated chunk", `Quick,
      test_unwritten_sector_in_allocated_chunk);
    ("chunked: crash budget ends mid-chunk", `Quick, test_crash_budget_mid_chunk);
    ("chunked: dump ascending, dump/load/dump identical", `Quick,
      test_dump_ascending_and_stable);
    ("chunked: load accepts descending records", `Quick, test_load_descending_records);
    ("observer", `Quick, test_observer);
    ("timing invariants", `Quick, test_timing_invariants);
    ("same cylinder needs no seek", `Quick, test_same_cylinder_no_seek);
    ("elevator hand-computed seeks", `Quick, test_elevator_hand_computed);
    ("sstf starvation bound", `Quick, test_sstf_starvation_bound);
    ("own timeline = sync mechanics", `Quick, test_own_timeline_matches_sync);
    ("queue depth cap", `Quick, test_queue_depth_cap);
    ("completions are not retained", `Quick, test_completions_not_retained);
    QCheck_alcotest.to_alcotest prop_queue_matches_list_model;
  ]
