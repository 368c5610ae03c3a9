(* Log-wrap endurance (ISSUE 6): churn determinism across executions,
   clean-shutdown durability mid-wrap, twin repair observability while
   home writes are flowing, and the third-boundary fill regression. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module F = Cedar_server.Faultsweep
module O = Cedar_server.Oracle
module S = Cedar_server.Server
module Obs = Cedar_obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_fs ?(geom = Geometry.tiny_test) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device (Params.for_geometry geom);
  let fs, _ = Fsd.boot device in
  (device, fs, clock)

(* ------------------------------------------------------------------ *)
(* Churn determinism: two executions, >= 3 full wraps, byte-identical   *)

let test_churn_deterministic () =
  let run () =
    F.clean_run ~geom:Geometry.tiny_test ~clients:2
      (F.Wrap { C.default_churn with C.churn_ops = 150 })
  in
  let a = run () in
  check bool ">= 3 full wraps" true (a.F.c_third_entries >= 9);
  check bool "clean" true (F.passed a);
  let b = run () in
  let render r = Obs.Jsonb.to_string_pretty (F.clean_run_json r) in
  check bool "byte-identical endurance reports" true
    (String.equal (render a) (render b))

(* ------------------------------------------------------------------ *)
(* Home-write totals pinned: the demon's skip of a homed third is exact *)

(* The home-write demon skips its scans of the next third once a pass
   found nothing left there, until a record lands in that third again.
   Skipping a pass that would have homed anything would move these
   totals, which are the values a scan on every pass produces. This
   seed is one where a skip that outlives a record landing in the third
   loses a burst. *)
let test_home_writes_pinned () =
  let r =
    F.clean_run ~geom:Geometry.tiny_test ~clients:3
      (F.Wrap { C.default_churn with C.churn_ops = 160; churn_seed = 2 })
  in
  check bool ">= 3 full wraps" true (r.F.c_third_entries >= 9);
  check bool "clean" true (F.passed r);
  check int "fnt.home_writes" 59 r.F.c_fnt_home_writes;
  check int "fsd.home_write_bursts" 42 r.F.c_home_write_bursts

(* ------------------------------------------------------------------ *)
(* Every acked mutation survives a clean shutdown taken mid-wrap        *)

let test_acked_survive_clean_reboot () =
  let device, fs, _ = fresh_fs () in
  let spec = { C.default_churn with C.churn_ops = 120 } in
  let clients = 2 in
  let scripts = C.churn_scripts spec ~clients in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  check int "no errors" 0 r.S.total_errors;
  check int "no drops" 0 r.S.total_dropped;
  let wrapped = (Fsd.log_stats fs).Log.third_entries in
  check bool "log wrapped before the shutdown" true (wrapped >= 4);
  let keep = (Fsd.params fs).Params.default_keep in
  Fsd.shutdown fs;
  let fs2, br = Fsd.boot device in
  check int "clean shutdown replays nothing" 0 br.Fsd.replayed_records;
  Array.iteri
    (fun client script ->
      let muts = O.muts_of_script script in
      let names = O.mut_names muts in
      let state = O.state_after ~keep muts (List.length muts) in
      match O.diff fs2 state names with
      | [] -> ()
      | v :: _ -> Alcotest.failf "client %d after reboot: %s" client v)
    scripts;
  (match Fsd.check fs2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "structural check after reboot: %s" m);
  Fsd.shutdown fs2

(* ------------------------------------------------------------------ *)
(* Twin repair while home writes flow: counter + trace event            *)

let test_twin_repair_observable () =
  let device, fs, _ = fresh_fs () in
  (* Enough churn through the server to enter thirds repeatedly, so FNT
     pages are being written home (bursts and third-entry flushes). *)
  let spec = { C.default_churn with C.churn_ops = 60 } in
  let r =
    S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs)
      (C.churn_scripts spec ~clients:1)
  in
  check int "no errors" 0 r.S.total_errors;
  check bool "home writes happened" true (Fsd.fnt_home_writes fs > 0);
  let layout = Fsd.layout fs in
  Fsd.shutdown fs;
  (* Smash copy B of name-table page 0; copy A stays authoritative. *)
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  Device.write_run device
    ~sector:(Layout.fnt_sector_b layout ~page:0)
    (Bytes.make (n * sb) 'Z');
  let tr = Device.trace device in
  Obs.Trace.enable tr;
  let fs2, _ = Fsd.boot device in
  (match Fsd.check fs2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "structural check: %s" m);
  Obs.Trace.disable tr;
  check bool "twin repair counted" true (Fsd.fnt_repairs fs2 >= 1);
  let repaired = ref 0 in
  Obs.Trace.iter tr (fun e ->
      match e.Obs.Trace.event with
      | Obs.Trace.Scrub_repair { target = "fnt-twin"; _ } -> incr repaired
      | _ -> ());
  check bool "fnt-twin repair traced" true (!repaired >= 1)

(* ------------------------------------------------------------------ *)
(* third_fill reads exactly 1.0 on the boundary, never wraps to 0.0     *)

let leader_unit layout sector fill =
  let sbytes = layout.Layout.geom.Geometry.sector_bytes in
  { Log.kind = Log.Leader_page sector; image = Bytes.make sbytes fill }

let test_third_fill_boundary () =
  let geom = Geometry.tiny_test in
  let layout = Layout.compute geom (Params.for_geometry geom) in
  let third = (layout.Layout.log_sectors - 3) / 3 in
  check int "tiny third size pinned" 37 third;
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Log.format device layout;
  let entered = ref [] in
  let log =
    Log.attach device layout ~boot_count:1 ~next_record_no:1_000_000L
      ~write_off:0
      ~on_enter_third:(fun j -> entered := j :: !entered)
  in
  let one = [ leader_unit layout 500 'a' ] in
  let two = [ leader_unit layout 501 'b'; leader_unit layout 502 'c' ] in
  check int "single-leader record is 7 sectors" 7
    (Log.record_total_sectors layout one);
  check int "double-leader record is 9 sectors" 9
    (Log.record_total_sectors layout two);
  (* 4 x 7 + 9 = 37: the last record ends exactly on the boundary. *)
  for _ = 1 to 4 do
    ignore (Log.append log one : int)
  done;
  check bool "fill below 1.0 before the boundary" true
    (Log.third_fill log < 1.0);
  ignore (Log.append log two : int);
  check bool "fill reads exactly 1.0 on the boundary" true
    (Log.third_fill log = 1.0);
  check int "still in third 0 (entry is on the next append)" 0
    (Log.current_third log);
  check bool "no third entered yet" true (!entered = []);
  ignore (Log.append log one : int);
  check int "next append enters third 1" 1 (Log.current_third log);
  check bool "entry callback fired for third 1" true (!entered = [ 1 ]);
  let fill = Log.third_fill log in
  check bool "fill restarts from the new third's own base" true
    (fill > 0.0 && fill < 1.0)

let test_commit_due_at_sane () =
  let _device, fs, clock = fresh_fs () in
  ignore
    (Fsd.create fs ~name:"due/f0" (Bytes.make 300 'x')
      : Cedar_fsbase.Fs_ops.info);
  Fsd.force fs;
  let interval = (Fsd.params fs).Params.commit_interval_us in
  check int "commit_due_at = last force + commit interval"
    (Simclock.now clock + interval)
    (Fsd.commit_due_at fs)

let suite =
  [
    Alcotest.test_case "churn wraps >=3x, byte-identical" `Slow
      test_churn_deterministic;
    Alcotest.test_case "home-write totals pinned across a churn" `Quick
      test_home_writes_pinned;
    Alcotest.test_case "acked mutations survive clean reboot mid-wrap" `Quick
      test_acked_survive_clean_reboot;
    Alcotest.test_case "twin repair emits counter and trace event" `Quick
      test_twin_repair_observable;
    Alcotest.test_case "third_fill boundary reads 1.0" `Quick
      test_third_fill_boundary;
    Alcotest.test_case "commit_due_at tracks the last force" `Quick
      test_commit_due_at_sane;
  ]
