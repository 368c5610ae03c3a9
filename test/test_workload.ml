(* Tests for the workload library: the size distribution's 50%/8% shape,
   the make/do script replayed identically across all three file
   systems, the served make/do scripts' digest, bulk helpers, the fake
   file server, and the measurement plumbing. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fsd_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.small_test);
  Cedar_fsd.Fsd.ops (fst (Cedar_fsd.Fsd.boot device))

let cfs_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_cfs.Cfs.format device (Cedar_cfs.Cfs_layout.params_for_geometry Geometry.small_test);
  match Cedar_cfs.Cfs.boot device with
  | `Ok fs -> Cedar_cfs.Cfs.ops fs
  | `Needs_scavenge -> Alcotest.fail "cfs boot"

let ufs_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_unixfs.Ufs.mkfs device (Cedar_unixfs.Ufs_params.for_geometry Geometry.small_test);
  match Cedar_unixfs.Ufs.mount device with
  | `Ok fs -> Cedar_unixfs.Ufs.ops fs
  | `Needs_fsck -> Alcotest.fail "ufs mount"

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)

let test_size_distribution_shape () =
  (* §5.6: "50% of files are less than 4,000 bytes but use only 8% of
     the sectors." *)
  let small_files, small_bytes = Sizes.check_distribution (Rng.create 5) ~samples:20_000 in
  check bool
    (Printf.sprintf "about half the files are small (%.2f)" small_files)
    true
    (small_files > 0.45 && small_files < 0.55);
  check bool
    (Printf.sprintf "small files hold ~8%% of bytes (%.3f)" small_bytes)
    true
    (small_bytes > 0.05 && small_bytes < 0.12)

let test_sizes_positive () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    if Sizes.sample rng < 1 then Alcotest.fail "zero-sized sample"
  done

(* ------------------------------------------------------------------ *)
(* Remote                                                              *)

let test_remote_publish_fetch () =
  let s = Remote.create ~name:"ivy" ~seed:3 in
  Remote.publish s ~path:"a" (Bytes.of_string "data-a");
  check bool "fetch" true (Remote.fetch s ~path:"a" = Some (Bytes.of_string "data-a"));
  check bool "missing" true (Remote.fetch s ~path:"b" = None);
  let data = Remote.publish_random s ~path:"c" (Rng.create 4) in
  check bool "random published" true (Remote.fetch s ~path:"c" = Some data);
  check (Alcotest.list Alcotest.string) "paths sorted" [ "a"; "c" ] (Remote.paths s)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)

let test_measure_counts () =
  let ops = fsd_ops () in
  let _, s =
    Measure.run ops (fun () ->
        ignore (ops.Fs_ops.create ~name:"m" ~data:(Bytes.make 600 'x')))
  in
  check int "one io" 1 s.Measure.ios;
  check int "one write" 1 s.Measure.writes;
  check bool "time advanced" true (s.Measure.elapsed_us > 0)

let test_bandwidth_fraction () =
  let g = Geometry.trident_t300 in
  (* moving exactly one sector in exactly one sector-time = 100% *)
  let f =
    Measure.bandwidth_fraction g ~bytes_moved:g.Geometry.sector_bytes
      ~elapsed_us:(Geometry.sector_time_us g)
  in
  check bool "full rate ~1.0" true (abs_float (f -. 1.0) < 0.05)

(* ------------------------------------------------------------------ *)
(* Bulk                                                                *)

let test_bulk_roundtrip () =
  let ops = fsd_ops () in
  ignore (Bulk.create_many ops ~dir:"d" ~n:25 ~bytes_each:300);
  ignore (Bulk.list_dir ops ~dir:"d" ~expect:25);
  ignore (Bulk.read_many ops ~dir:"d" ~n:25);
  ignore (Bulk.delete_many ops ~dir:"d" ~n:25);
  check int "all deleted" 0 (List.length (ops.Fs_ops.list ~prefix:"d/"))

(* ------------------------------------------------------------------ *)
(* MakeDo across all three systems                                     *)

let makedo_modules = 8

(* The replayed make/do is client 0's, so its names sit under c00/. *)
let expected_names modules =
  List.concat
    [
      List.init modules (Printf.sprintf "c00/src/M%03d.mesa");
      List.init modules (Printf.sprintf "c00/bin/M%03d.bcd");
      [ "c00/build/program.df" ];
    ]
  |> List.sort compare

(* BSD's list is per-directory, so enumerate the build's directories
   rather than using a flat prefix. *)
let run_makedo ops =
  let s = Concurrent.makedo_direct ops ~modules:makedo_modules in
  let names =
    List.concat_map
      (fun dir -> List.map (fun i -> i.Fs_ops.name) (ops.Fs_ops.list ~prefix:dir))
      [ "c00/src/"; "c00/bin/"; "c00/build/" ]
    |> List.sort compare
  in
  (s, names)

let test_makedo_same_result_everywhere () =
  let _, fsd_names = run_makedo (fsd_ops ()) in
  let _, cfs_names = run_makedo (cfs_ops ()) in
  let _, ufs_names = run_makedo (ufs_ops ()) in
  let expected = expected_names makedo_modules in
  check (Alcotest.list Alcotest.string) "fsd names" expected fsd_names;
  check (Alcotest.list Alcotest.string) "cfs names" expected cfs_names;
  check (Alcotest.list Alcotest.string) "ufs names" expected ufs_names

let test_makedo_temps_deleted () =
  List.iter
    (fun ops ->
      ignore (Concurrent.makedo_direct ops ~modules:makedo_modules : Measure.sample);
      check int "no temps left" 0 (List.length (ops.Fs_ops.list ~prefix:"c00/tmp/")))
    [ fsd_ops (); cfs_ops (); ufs_ops () ]

let test_makedo_fsd_beats_cfs_on_ios () =
  let fsd_s, _ = run_makedo (fsd_ops ()) in
  let cfs_s, _ = run_makedo (cfs_ops ()) in
  check bool
    (Printf.sprintf "cfs %d > fsd %d ios" cfs_s.Measure.ios fsd_s.Measure.ios)
    true
    (cfs_s.Measure.ios > fsd_s.Measure.ios)

(* The served make/do scripts, pinned step for step: perfbench's
   makedo-8vol spec (the default, 64 clients, seed 1) printed one step a
   line and digested. A change that moves any served step fails here. *)
let step_line = function
  | Concurrent.Think us -> Printf.sprintf "think %d" us
  | Concurrent.At t -> Printf.sprintf "at %d" t
  | Concurrent.Op (Concurrent.Create { name; bytes; fill }) ->
    Printf.sprintf "create %s %d %d" name bytes fill
  | Concurrent.Op (Concurrent.Open name) -> "open " ^ name
  | Concurrent.Op (Concurrent.Read name) -> "read " ^ name
  | Concurrent.Op (Concurrent.Read_page { name; page }) ->
    Printf.sprintf "read_page %s %d" name page
  | Concurrent.Op (Concurrent.Delete name) -> "delete " ^ name
  | Concurrent.Op (Concurrent.List prefix) -> "list " ^ prefix
  | Concurrent.Op Concurrent.Force -> "force"

let test_makedo_scripts_pinned () =
  let b = Buffer.create 400_000 in
  Array.iteri
    (fun client script ->
      Buffer.add_string b (Printf.sprintf "client %d\n" client);
      List.iter
        (fun step ->
          Buffer.add_string b (step_line step);
          Buffer.add_char b '\n')
        script)
    (Concurrent.makedo_scripts Concurrent.default_spec ~clients:64);
  check Alcotest.string "served make/do scripts digest"
    "04e739fd0f6bcad46acfb1b6b43c8a69"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_shard_scripts_pin_clients () =
  let scripts =
    Array.init 5 (fun client ->
        [ Concurrent.Op (Concurrent.Create { name = "x/f"; bytes = 64; fill = client }) ])
  in
  let sharded = Concurrent.shard_scripts scripts ~volumes:3 in
  Array.iteri
    (fun client script ->
      match script with
      | [ Concurrent.Op (Concurrent.Create { name; _ }) ] ->
        check int
          (Printf.sprintf "client %d routes to its volume" client)
          (client mod 3)
          (Cedar_fsbase.Fname.shard ~shards:3 name)
      | _ -> Alcotest.fail "unexpected script shape")
    sharded

(* The payload is built a period at a time; each byte must be the
   per-byte formula's. *)
let test_content_matches_formula () =
  List.iter
    (fun fill ->
      List.iter
        (fun n ->
          check bool
            (Printf.sprintf "content ~fill:%d %d" fill n)
            true
            (Bytes.equal
               (Bytes.init n (fun i -> Char.chr ((i + fill) mod 251)))
               (Concurrent.content ~fill n)))
        [ 0; 1; 250; 251; 252; 5000 ])
    [ 0; 1; 250; 251; 1000 ];
  match Concurrent.content ~fill:(-1) 10 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("size distribution: 50%/8% shape", `Quick, test_size_distribution_shape);
    ("sizes never zero", `Quick, test_sizes_positive);
    ("remote publish/fetch", `Quick, test_remote_publish_fetch);
    ("measure counts ios and time", `Quick, test_measure_counts);
    ("bandwidth fraction calibration", `Quick, test_bandwidth_fraction);
    ("bulk helpers roundtrip", `Quick, test_bulk_roundtrip);
    ("makedo: same files on all systems", `Quick, test_makedo_same_result_everywhere);
    ("makedo: temps deleted", `Quick, test_makedo_temps_deleted);
    ("makedo: fsd beats cfs on ios", `Quick, test_makedo_fsd_beats_cfs_on_ios);
    ("makedo: served scripts pinned", `Quick, test_makedo_scripts_pinned);
    ("shard_scripts pins clients to volumes", `Quick, test_shard_scripts_pin_clients);
    ("content matches the per-byte formula", `Quick, test_content_matches_formula);
  ]
