(* Multi-volume file server (sharded FNT, per-volume group commit):
   shard-map stability and balance, the per-volume metrics namespace
   (no clobbering between volumes, unprefixed compatibility for the
   single-volume degenerate case), whole-set determinism, and — the
   §5.4 point of per-volume logs — recovery independence: a planted
   crash on one volume of a two-volume set quarantines just that
   volume; the survivor completes; the crashed one reboots with every
   acknowledged mutation intact and routing unchanged. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module V = Cedar_volumes.Volume_set
module Sm = Cedar_volumes.Shard_map
module Obs = Cedar_obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A script of [creates] files for one client, every name nested under
   the top-level directory that routes to volume [vid] — deterministic
   placement, creates only, so the §5.4 oracle below is just "every
   acked name exists after reboot". *)
let creates_on ~volumes ~vid ~tag ~creates ~bytes ~think =
  let dir = Fname.shard_dir ~shards:volumes vid in
  List.concat_map
    (fun i ->
      [
        C.Think think;
        C.Op
          (C.Create
             {
               name = Printf.sprintf "%s/%s/f%03d" dir tag i;
               bytes;
               fill = i;
             });
      ])
    (List.init creates (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

let test_shard_map_stable_and_balanced () =
  let map = Sm.create ~shards:4 in
  let names =
    List.init 200 (fun i -> Printf.sprintf "dir%02d/sub/f%03d" (i mod 37) i)
  in
  let hits = Array.make 4 0 in
  List.iter
    (fun n ->
      let s = Sm.route map n in
      check int "route is stable" s (Sm.route map n);
      check int "route matches Fname.shard" s (Fname.shard ~shards:4 n);
      hits.(s) <- hits.(s) + 1)
    names;
  Array.iteri
    (fun i h ->
      check bool (Printf.sprintf "shard %d gets a share (%d)" i h) true (h > 10))
    hits;
  (* Only the first path component decides, so a client's whole
     namespace stays on one volume. *)
  check int "routing ignores the tail"
    (Sm.route map "dir00/a")
    (Sm.route map "dir00/completely/different/tail");
  check int "one shard routes everything" 0 (Fname.shard ~shards:1 "anything")

let test_shard_dir_routes_home () =
  List.iter
    (fun shards ->
      for k = 0 to shards - 1 do
        let d = Fname.shard_dir ~shards k in
        check int
          (Printf.sprintf "shard_dir ~shards:%d %d routes to %d" shards k k)
          k
          (Fname.shard ~shards (d ^ "/any/file"))
      done)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Per-volume metrics namespace (satellite: registry collision fix)    *)

let test_two_volume_metrics_no_clobber () =
  let clock = Simclock.create () in
  let vset = V.create_fresh ~geom:Geometry.small_test ~clock 2 in
  let scripts =
    [|
      creates_on ~volumes:2 ~vid:0 ~tag:"a" ~creates:3 ~bytes:600 ~think:20_000;
      creates_on ~volumes:2 ~vid:1 ~tag:"b" ~creates:5 ~bytes:600 ~think:20_000;
    |]
  in
  let r = S.serve_volumes vset scripts in
  check int "all mutations acked" 8 r.S.mutations_acked;
  let m = V.metrics vset in
  (* Each volume's instruments live under its own prefix in the shared
     root registry — distinct cells, so the asymmetric workload must
     read back asymmetrically. *)
  check (Alcotest.option int) "vol0 acked counter" (Some 3)
    (Obs.Metrics.read m "vol0.server.acked");
  check (Alcotest.option int) "vol1 acked counter" (Some 5)
    (Obs.Metrics.read m "vol1.server.acked");
  check (Alcotest.option int) "no unprefixed counter to clobber" None
    (Obs.Metrics.read m "server.acked");
  check bool "vol0 device counters present" true
    (Obs.Metrics.read m "vol0.device.sectors_written" <> None);
  check bool "vol1 device counters present" true
    (Obs.Metrics.read m "vol1.device.sectors_written" <> None);
  (* And the scoped views strip their prefix, so per-volume code reads
     historical names unchanged. *)
  let v1 = Obs.Metrics.scoped m "vol1." in
  check (Alcotest.option int) "scoped view, unqualified name" (Some 5)
    (Obs.Metrics.read v1 "server.acked")

let test_single_volume_keeps_bare_names () =
  let clock = Simclock.create () in
  let vset = V.create_fresh ~geom:Geometry.small_test ~clock 1 in
  let scripts =
    [| creates_on ~volumes:1 ~vid:0 ~tag:"a" ~creates:4 ~bytes:600 ~think:20_000 |]
  in
  let r = S.serve_volumes vset scripts in
  check int "acked" 4 r.S.mutations_acked;
  let m = V.metrics vset in
  check (Alcotest.option int) "bare historical name" (Some 4)
    (Obs.Metrics.read m "server.acked");
  check (Alcotest.option int) "no vol0 prefix with one volume" None
    (Obs.Metrics.read m "vol0.server.acked")

(* ------------------------------------------------------------------ *)
(* Determinism across the whole set                                    *)

let run_two_volume_report () =
  let clock = Simclock.create () in
  let vset = V.create_fresh ~geom:Geometry.small_test ~clock 2 in
  let spec = { C.default_spec with C.modules = 4; rounds = 1; think_us = 30_000 } in
  let scripts = C.shard_scripts (C.makedo_scripts spec ~clients:4) ~volumes:2 in
  let r = S.serve_volumes vset scripts in
  Obs.Jsonb.to_string (S.report_json r)

let test_two_volume_determinism () =
  let a = run_two_volume_report () in
  let b = run_two_volume_report () in
  check bool "same seed, byte-identical reports" true (String.equal a b);
  (* The multi-volume report carries the per-volume array. *)
  check bool "per-volume section present" true
    (let rec contains i =
       i + 9 <= String.length a
       && (String.sub a i 9 = "\"volumes\"" || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Recovery independence (satellite: per-volume crash containment)     *)

let test_recovery_independence () =
  let clock = Simclock.create () in
  let vset = V.create_fresh ~geom:Geometry.small_test ~clock 2 in
  let scripts =
    [|
      creates_on ~volumes:2 ~vid:0 ~tag:"w" ~creates:20 ~bytes:700 ~think:20_000;
      creates_on ~volumes:2 ~vid:1 ~tag:"x" ~creates:20 ~bytes:700 ~think:20_000;
      creates_on ~volumes:2 ~vid:0 ~tag:"y" ~creates:20 ~bytes:700 ~think:20_000;
      creates_on ~volumes:2 ~vid:1 ~tag:"z" ~creates:20 ~bytes:700 ~think:20_000;
    |]
  in
  (* Arm a torn write partway into volume 1's log. Volume 0 never sees
     it. *)
  Device.plan_write_crash (V.device vset 1) ~after_sectors:80 ~damage_tail:1;
  let t = S.create_volumes vset scripts in
  let r = S.run t in
  check (Alcotest.list int) "only volume 1 crashed" [ 1 ] (S.crashed_volumes t);
  let vr0 = List.nth r.S.per_volume 0 and vr1 = List.nth r.S.per_volume 1 in
  check bool "volume 0 alive" false vr0.S.vr_crashed;
  check bool "volume 1 quarantined" true vr1.S.vr_crashed;
  (* The survivor finished its whole workload. *)
  let s0 = List.nth r.S.per_session 0 and s2 = List.nth r.S.per_session 2 in
  check bool "vol-0 sessions not aborted" true
    (s0.S.r_aborted = None && s2.S.r_aborted = None);
  check int "vol-0 sessions fully acked" 40
    (s0.S.r_mutations + s2.S.r_mutations);
  check int "volume 0 acked everything" 40 vr0.S.vr_acked;
  check bool "volume 1 lost some work" true (vr1.S.vr_acked < 40);
  (* §5.4 oracle: every mutation the server acknowledged on the crashed
     volume must survive its reboot. *)
  let acked1 =
    List.filter_map
      (fun (_, op) ->
        match op with
        | C.Create { name; _ } when V.route vset name = 1 -> Some name
        | _ -> None)
      (S.acked t)
  in
  check bool "volume 1 had acked work to check" true (List.length acked1 > 0);
  (match Fsd.try_boot (V.device vset 1) with
  | `Needs_scavenge reason ->
    Alcotest.fail ("crashed volume failed to reboot: " ^ reason)
  | `Ok (fs1, _report) ->
    check int "reboot keeps the shard id" 1 (Fsd.shard fs1);
    List.iter
      (fun name ->
        check bool (Printf.sprintf "acked %s survives reboot" name) true
          (Fsd.exists fs1 ~name))
      acked1;
    (* Put the rebooted volume back and serve again: routing is
       unchanged, both volumes take work. *)
    V.replace vset 1 fs1;
    let again =
      [|
        creates_on ~volumes:2 ~vid:0 ~tag:"post0" ~creates:3 ~bytes:600
          ~think:20_000;
        creates_on ~volumes:2 ~vid:1 ~tag:"post1" ~creates:3 ~bytes:600
          ~think:20_000;
      |]
    in
    let r2 = S.serve_volumes vset again in
    check int "post-reboot run fully acked" 6 r2.S.mutations_acked;
    check int "no aborts after reboot" 0 r2.S.total_aborted;
    let vr0' = List.nth r2.S.per_volume 0 and vr1' = List.nth r2.S.per_volume 1 in
    check int "volume 0 still serving" 3 vr0'.S.vr_acked;
    check int "rebooted volume serving again" 3 vr1'.S.vr_acked)

(* [create_fresh ~params] boots every volume with the caller's runtime
   knobs, not the defaults: a non-default commit interval and black-box
   cadence read back from each volume, and the request-queue depth
   reaches each device (a write stays pending in its queue). *)
let test_create_fresh_keeps_params () =
  let params =
    {
      (Params.for_geometry Geometry.small_test) with
      Params.commit_interval_us = 123_456;
      blackbox_every_n_forces = max_int;
      disk_qdepth = 4;
    }
  in
  let vset =
    V.create_fresh ~geom:Geometry.small_test ~params ~clock:(Simclock.create ()) 2
  in
  V.iter
    (fun i fs ->
      let p = Fsd.params fs in
      check int "commit interval survives" 123_456 p.Params.commit_interval_us;
      check int "black-box cadence survives" max_int
        p.Params.blackbox_every_n_forces;
      check int "shard id is the volume index" i p.Params.shard_id;
      ignore (Fsd.create fs ~name:(Fname.shard_dir ~shards:2 i ^ "/q") (Bytes.make 900 'q'));
      check bool "the device has a request queue" true
        (Device.queue_length (V.device vset i) > 0))
    vset

let suite =
  [
    ("shard map: stable, balanced, prefix-keyed", `Quick,
     test_shard_map_stable_and_balanced);
    ("shard_dir routes to its own shard", `Quick, test_shard_dir_routes_home);
    ("two volumes: metrics never clobber", `Quick,
     test_two_volume_metrics_no_clobber);
    ("one volume: bare metric names", `Quick, test_single_volume_keeps_bare_names);
    ("two volumes: byte-identical reports", `Quick, test_two_volume_determinism);
    ("crash on one volume leaves the other serving", `Quick,
     test_recovery_independence);
    ("create_fresh keeps params", `Quick, test_create_fresh_keeps_params);
  ]
