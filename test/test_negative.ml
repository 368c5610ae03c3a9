(* Negative-path tests: every module must reject API misuse loudly
   (Invalid_argument) and malformed input predictably (Decode_error /
   option / result) — never by silent corruption. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

let check = Alcotest.check
let bool = Alcotest.bool

let inv f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Bytebuf                                                              *)

let test_writer_bounds () =
  let w = Bytebuf.Writer.create () in
  inv (fun () -> Bytebuf.Writer.u8 w 256);
  inv (fun () -> Bytebuf.Writer.u8 w (-1));
  inv (fun () -> Bytebuf.Writer.u16 w 65536);
  inv (fun () -> Bytebuf.Writer.u32 w (-5));
  inv (fun () -> Bytebuf.Writer.fixed_string w ~width:3 "toolong");
  inv (fun () -> Bytebuf.Writer.fixed_string w ~width:8 "nul\000here");
  Bytebuf.Writer.raw w (Bytes.make 600 'x');
  inv (fun () -> Bytebuf.Writer.to_sector w ~size:512);
  (* [seal] needs room for the CRC after the contents. *)
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.raw w (Bytes.make 509 'x');
  inv (fun () -> Bytebuf.Writer.seal w ~size:512);
  ignore (Bytebuf.Writer.seal w ~size:513 : bytes)

let test_reader_bounds () =
  inv (fun () -> Bytebuf.Reader.of_bytes ~pos:5 (Bytes.create 3));
  let r = Bytebuf.Reader.of_bytes (Bytes.create 2) in
  match Bytebuf.Reader.u32 r with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Bytebuf.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Crc32                                                                *)

(* A slice not inside the buffer is refused before any byte is read —
   the kernel reads its slice unchecked — on both paths, including a
   length so large that [pos + len] wraps past [max_int]. *)
let test_crc32_bounds () =
  let b = Bytes.make 100 'c' in
  List.iter
    (fun (crc32 : ?crc:int -> ?pos:int -> ?len:int -> bytes -> int) ->
      inv (fun () -> crc32 ~pos:(-1) b);
      inv (fun () -> crc32 ~len:(-1) b);
      inv (fun () -> crc32 ~pos:101 b);
      inv (fun () -> crc32 ~pos:40 ~len:61 b);
      inv (fun () -> crc32 ~len:101 b);
      inv (fun () -> crc32 ~pos:1 ~len:max_int b);
      check Alcotest.int "the empty slice at the end" 0 (crc32 ~pos:100 b))
    [ Crc32.bytes; Crc32.portable ]

(* ------------------------------------------------------------------ *)
(* Bitmap / Lru / Rng / Simclock                                        *)

let test_bitmap_bounds () =
  let b = Bitmap.create 10 in
  inv (fun () -> Bitmap.get b 10);
  inv (fun () -> Bitmap.set b (-1));
  inv (fun () -> Bitmap.find_run_set b ~from:0 ~upto:10 ~len:0);
  inv (fun () -> Bitmap.of_bytes ~bits:100 (Bytes.create 2));
  (* a run that leaves the map is refused whole, not applied up to the edge *)
  let b20 = Bitmap.create 20 in
  inv (fun () -> Bitmap.set_run b20 ~pos:17 ~len:5);
  check Alcotest.int "set_run changed nothing" 0 (Bitmap.count b20);
  Bitmap.set_run b20 ~pos:0 ~len:20;
  inv (fun () -> Bitmap.clear_run b20 ~pos:(-1) ~len:4);
  check Alcotest.int "clear_run changed nothing" 20 (Bitmap.count b20);
  inv (fun () -> Bitmap.blit_to_bytes b20 ~off:2 (Bytes.create 4) ~pos:0 ~len:2);
  inv (fun () -> Bitmap.blit_to_bytes b20 ~off:0 (Bytes.create 4) ~pos:3 ~len:2);
  inv (fun () -> Bitmap.overwrite_bytes b ~off:1 (Bytes.create 2))

let test_lru_misuse () =
  inv (fun () -> Lru.create ~capacity:0);
  let c = Lru.create ~capacity:2 in
  inv (fun () -> Lru.pin c 42);
  inv (fun () -> Lru.unpin c 42)

let test_rng_misuse () =
  let r = Rng.create 1 in
  inv (fun () -> Rng.int r 0);
  inv (fun () -> Rng.int_in r ~lo:5 ~hi:4);
  inv (fun () -> Rng.choose r [||])

let test_simclock_misuse () =
  let c = Simclock.create () in
  inv (fun () -> Simclock.advance c (-1))

(* ------------------------------------------------------------------ *)
(* Run_table / Fname                                                    *)

let test_run_table_misuse () =
  inv (fun () -> Run_table.of_runs [ { Run_table.start = -1; len = 2 } ]);
  inv (fun () -> Run_table.of_runs [ { Run_table.start = 3; len = 0 } ]);
  let t = Run_table.of_runs [ { Run_table.start = 10; len = 2 } ] in
  inv (fun () -> Run_table.sector_of_page t 2);
  inv (fun () -> Run_table.sector_of_page t (-1));
  inv (fun () -> Run_table.contiguous_prefix t ~page:2)

let test_fname_misuse () =
  inv (fun () -> Fname.key ~name:"ok" ~version:0);
  inv (fun () -> Fname.key ~name:"ok" ~version:1_000_000);
  inv (fun () -> Fname.key ~name:"bad!bang" ~version:1);
  inv (fun () -> Fname.key ~name:"" ~version:1)

(* ------------------------------------------------------------------ *)
(* Device                                                               *)

let test_device_misuse () =
  let d = Device.create ~clock:(Simclock.create ()) Geometry.tiny_test in
  let total = Geometry.total_sectors Geometry.tiny_test in
  inv (fun () -> Device.read d total);
  inv (fun () -> Device.read d (-1));
  inv (fun () -> Device.write d 0 (Bytes.create 100));
  inv (fun () -> Device.read_run d ~sector:0 ~count:0);
  inv (fun () -> Device.read_run d ~sector:(total - 2) ~count:5);
  inv (fun () -> Device.write_run d ~sector:0 (Bytes.create 700));
  inv (fun () -> Device.write_labels d ~sector:0 []);
  inv (fun () -> Device.plan_write_crash d ~after_sectors:(-1) ~damage_tail:1);
  inv (fun () -> Device.plan_write_crash d ~after_sectors:0 ~damage_tail:5);
  inv (fun () -> Device.write_sectors d ~sector:0 ~count:0 (Bytes.create 512));
  inv (fun () -> Device.write_sectors d ~sector:0 ~count:2 (Bytes.create 1000))

(* Device images: a file that is not one, or is cut short, or names a
   sector the geometry lacks, is refused with [Decode_error] — never
   loaded in part, and never stored out of bounds. *)
let image_of d =
  let file = Filename.temp_file "cedar" ".img" in
  Out_channel.with_open_bin file (fun oc -> Device.dump d oc);
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

let load_image s =
  let file = Filename.temp_file "cedar" ".img" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () -> In_channel.with_open_bin file (Device.load ~clock:(Simclock.create ())))

let expect_bad_image what s =
  match load_image s with
  | _ -> Alcotest.failf "%s: expected Decode_error" what
  | exception Bytebuf.Decode_error _ -> ()

(* An image of tiny_test with sector 3 written; its first data record
   starts at byte 44 (magic, nine geometry fields, the record count). *)
let one_sector_image () =
  let d = Device.create ~clock:(Simclock.create ()) Geometry.tiny_test in
  Device.write d 3 (Bytes.make 512 's');
  image_of d

let test_image_bad_magic () =
  let s = Bytes.of_string (one_sector_image ()) in
  Bytes.set s 0 'X';
  expect_bad_image "bad magic" (Bytes.to_string s);
  expect_bad_image "not an image" "this is a text file, not a disk image\n";
  expect_bad_image "empty file" ""

let test_image_truncated () =
  let s = one_sector_image () in
  ignore (load_image s : Device.t);
  List.iter
    (fun len -> expect_bad_image (Printf.sprintf "cut at %d" len) (String.sub s 0 len))
    [ 20; 44; 46; 48 + 100; String.length s - 1 ]

let test_image_sector_out_of_range () =
  let total = Geometry.total_sectors Geometry.tiny_test in
  let s = Bytes.of_string (one_sector_image ()) in
  (* The first record's sector number follows the record count. *)
  Bytes.set_int32_le s 44 (Int32.of_int total);
  expect_bad_image "sector = total" (Bytes.to_string s);
  Bytes.set_int32_le s 44 (-1l);
  expect_bad_image "sector 2^32 - 1" (Bytes.to_string s);
  Bytes.set_int32_le s 44 (Int32.of_int (total - 1));
  let d = load_image (Bytes.to_string s) in
  check bool "last sector loads" true (Device.written_ever d (total - 1))

(* ------------------------------------------------------------------ *)
(* FSD public API                                                       *)

let fsd () =
  let device = Device.create ~clock:(Simclock.create ()) Geometry.tiny_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.tiny_test);
  fst (Cedar_fsd.Fsd.boot device)

let expect_fs_error pred f =
  match f () with
  | _ -> Alcotest.fail "expected Fs_error"
  | exception Fs_error.Fs_error e ->
    if not (pred e) then Alcotest.fail ("wrong error: " ^ Fs_error.to_string e)

let test_fsd_api_misuse () =
  let open Cedar_fsd in
  let fs = fsd () in
  ignore (Fsd.create fs ~name:"x" (Bytes.make 100 'a'));
  expect_fs_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.touch_cached fs ~name:"x");
  (* a name too big for the name table *)
  expect_fs_error
    (function Fs_error.Bad_name _ -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:(String.make 200 'n') (Bytes.create 1))

let test_fsd_volume_full () =
  let open Cedar_fsd in
  let fs = fsd () in
  expect_fs_error
    (function Fs_error.Volume_full -> true | _ -> false)
    (fun () ->
      for i = 0 to 10_000 do
        ignore (Fsd.create fs ~name:(Printf.sprintf "fill%05d" i) (Bytes.make 20_000 'f'))
      done)

(* ------------------------------------------------------------------ *)
(* Log                                                                  *)

let test_log_misuse () =
  let open Cedar_fsd in
  let geom = Geometry.tiny_test in
  let layout = Layout.compute geom (Params.for_geometry geom) in
  let device = Device.create ~clock:(Simclock.create ()) geom in
  Log.format device layout;
  let log =
    Log.attach device layout ~boot_count:1 ~next_record_no:1L ~write_off:0
      ~on_enter_third:(fun _ -> ())
  in
  inv (fun () -> Log.append log []);
  inv (fun () ->
      Log.append log [ { Log.kind = Log.Leader_page 9; image = Bytes.create 100 } ])

let suite =
  [
    ("bytebuf writer bounds", `Quick, test_writer_bounds);
    ("bytebuf reader bounds", `Quick, test_reader_bounds);
    ("crc32 bounds", `Quick, test_crc32_bounds);
    ("bitmap bounds", `Quick, test_bitmap_bounds);
    ("lru misuse", `Quick, test_lru_misuse);
    ("rng misuse", `Quick, test_rng_misuse);
    ("simclock misuse", `Quick, test_simclock_misuse);
    ("run table misuse", `Quick, test_run_table_misuse);
    ("fname misuse", `Quick, test_fname_misuse);
    ("device misuse", `Quick, test_device_misuse);
    ("device image: bad magic", `Quick, test_image_bad_magic);
    ("device image: truncated", `Quick, test_image_truncated);
    ("device image: sector out of range", `Quick, test_image_sector_out_of_range);
    ("fsd api misuse", `Quick, test_fsd_api_misuse);
    ("fsd volume full", `Quick, test_fsd_volume_full);
    ("log misuse", `Quick, test_log_misuse);
  ]
