(* Crash-injection sweep harness (ISSUE 5): the Crash_plan coordinate
   layer, the bounded sweep with every tear mode, the scavenge-mode
   sweep, and the run_op catch-all regression. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module F = Cedar_server.Faultsweep

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_fs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  (device, fs)

(* ------------------------------------------------------------------ *)
(* Crash_plan: the recording observer and force-relative arming         *)

let test_crash_plan_records_and_arms () =
  let device, fs = fresh_fs () in
  let plan = Crash_plan.attach device in
  ignore (Fsd.create fs ~name:"a/one" (Bytes.create 700));
  Crash_plan.note_force plan;
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"a/two" (Bytes.create 700));
  Crash_plan.note_force plan;
  Fsd.force fs;
  let w = Crash_plan.writes_per_interval plan in
  check int "one interval per force plus the open tail" 3 (Array.length w);
  (* note_force fires just before Fsd.force, so force m's commit writes
     land in the interval it opens: interval 0 holds the first create's
     data writes, interval 1 holds force 1's commit plus the second
     create, and the open tail holds force 2's commit. *)
  check bool "interval 0 saw the first create" true (w.(0) > 0);
  check bool "interval 1 saw force 1 and the second create" true (w.(1) > 0);
  check bool "the open tail saw force 2's commit" true (w.(2) > 0);
  (* Re-run the same ops arming (force 2, write 0): the very first
     sector write of force 2's commit must die, after force 1's commit
     has fully landed. *)
  let device2, fs2 = fresh_fs () in
  let plan2 = Crash_plan.attach device2 in
  Crash_plan.arm plan2 ~force:2 ~write:0 ~tear:Device.Tear_none;
  ignore (Fsd.create fs2 ~name:"a/one" (Bytes.create 700));
  Crash_plan.note_force plan2;
  Fsd.force fs2;
  (match
     ignore (Fsd.create fs2 ~name:"a/two" (Bytes.create 700));
     Crash_plan.note_force plan2;
     Fsd.force fs2
   with
  | () -> Alcotest.fail "armed crash never fired"
  | exception Device.Crash_during_write _ -> ());
  (* Force 1's commit completed untouched; force 2 never landed. *)
  Device.cancel_write_crash device2;
  let fs3, _ = Fsd.boot device2 in
  check bool "pre-crash commit survives" true (Fsd.exists fs3 ~name:"a/one");
  check bool "uncommitted create is wholly absent" false
    (Fsd.exists fs3 ~name:"a/two")

(* ------------------------------------------------------------------ *)
(* Tear modes leave the planned sector states behind                    *)

let test_tear_modes () =
  let probe tear =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.tiny_test in
    let sb = Geometry.tiny_test.Geometry.sector_bytes in
    let img = Bytes.make (3 * sb) 'x' in
    Device.plan_write_crash_tear device ~after_sectors:1 ~tear;
    (match Device.write_run device ~sector:10 img with
    | () -> Alcotest.fail "tear never fired"
    | exception Device.Crash_during_write { sector } ->
      check int "interrupted at the second sector" 11 sector);
    device
  in
  let d = probe Device.Tear_none in
  check bool "prefix sector written" true (Device.written_ever d 10);
  check bool "interrupted sector untouched" false (Device.written_ever d 11);
  let d = probe Device.Tear_zero in
  check bool "zeroed sector readable" true
    (Bytes.for_all (fun c -> c = '\000') (Device.read d 11));
  let d = probe Device.Tear_garbage in
  check bool "garbage sector readable but wrong" true
    (not (Bytes.for_all (fun c -> c = 'x') (Device.read d 11))
    && not (Bytes.for_all (fun c -> c = '\000') (Device.read d 11)));
  let d = probe (Device.Tear_damage 1) in
  check bool "damaged sector unreadable" true (Device.is_damaged d 11)

(* ------------------------------------------------------------------ *)
(* Regression (ISSUE 5): a non-Fs_error exception mid-op must not wedge
   the scheduler — the session dies with a typed abort and the other
   sessions run to completion. *)

let test_run_op_catch_all () =
  let device, fs = fresh_fs () in
  (* Fire an injected failure from inside client 0's first data write,
     i.e. from deep inside Fsd.submit — exactly where only Fs_error used
     to be caught. *)
  let armed = ref true in
  Device.set_observer device
    (Some
       (fun ~rw ~sector:_ ~count:_ ->
         if !armed && rw = `W then begin
           armed := false;
           failwith "injected-device-wedge"
         end));
  let scripts =
    [|
      [ C.Op (C.Create { name = "c00/boom"; bytes = 700; fill = 1 }) ];
      [
        C.Think 5_000;
        C.Op (C.Create { name = "c01/fine"; bytes = 700; fill = 2 });
        C.Op C.Force;
      ];
    |]
  in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  check int "one session aborted" 1 r.S.total_aborted;
  check int "the abort is not an fs error" 0 r.S.total_errors;
  let s0 = List.nth r.S.per_session 0 in
  (match s0.S.r_aborted with
  | Some m ->
    check bool "abort names the exception" true
      (String.length m > 0
      && String.exists (fun _ -> true) m
      &&
      let needle = "injected-device-wedge" in
      let rec find i =
        i + String.length needle <= String.length m
        && (String.sub m i (String.length needle) = needle || find (i + 1))
      in
      find 0)
  | None -> Alcotest.fail "session 0 must carry the abort");
  (* The scheduler survived: client 1 finished and was acked. *)
  let s1 = List.nth r.S.per_session 1 in
  check int "client 1 acked its create" 1 s1.S.r_mutations;
  check bool "client 1's file exists" true (Fsd.exists fs ~name:"c01/fine")

(* ------------------------------------------------------------------ *)
(* The bounded sweep: every (force, write, tear) point of the first two
   force intervals of the 2-client reference script, zero violations. *)

let test_sweep_first_intervals_all_tears () =
  let s =
    F.sweep
      { F.default_cfg with F.max_forces = Some 2; tears = F.all_tears }
  in
  check bool "swept a real point space" true (s.F.sw_points > 20);
  check int "four runs per point" (4 * s.F.sw_points) s.F.sw_runs;
  check int "zero violations" 0 (List.length s.F.sw_violations);
  check bool "log replay is the common recovery path" true (s.F.sw_replay > 0);
  check int "every run recovered on a known path" s.F.sw_runs
    (s.F.sw_replay + s.F.sw_twin_repair + s.F.sw_scavenged)

(* Scavenge mode: both FNT copies destroyed after every crash; recovery
   must come back through the scavenger with the weakened oracle. *)
let test_sweep_scavenge_mode () =
  let s =
    F.sweep
      {
        F.clients = 2;
        tears = [ Cedar_disk.Device.Tear_none ];
        max_forces = Some 1;
        scavenge = true;
        workload = F.Reference;
      }
  in
  check bool "swept points" true (s.F.sw_points > 0);
  check int "zero violations" 0 (List.length s.F.sw_violations);
  check int "every run scavenged" s.F.sw_runs s.F.sw_scavenged

(* A wrap sweep whose churn never enters a third has no wrap window to
   crash in: the sweep refuses it with [Refused], which the CLI reports
   as an error, rather than sweeping nothing. *)
let test_sweep_without_wrap_refused () =
  let spec = { F.default_wrap_spec with Cedar_workload.Concurrent.churn_ops = 2 } in
  match F.sweep { F.default_cfg with F.tears = [ Device.Tear_none ]; workload = F.Wrap spec } with
  | _ -> Alcotest.fail "a wrap sweep with no wrap window ran"
  | exception F.Refused _ -> ()

(* Determinism: the sweep summary is byte-identical across runs. *)
let test_sweep_deterministic () =
  let cfg =
    { F.default_cfg with F.max_forces = Some 1; tears = [ Device.Tear_zero ] }
  in
  let a = Cedar_obs.Jsonb.to_string (F.summary_json (F.sweep cfg)) in
  let b = Cedar_obs.Jsonb.to_string (F.summary_json (F.sweep cfg)) in
  check bool "same sweep, byte-identical summaries" true (String.equal a b)

let suite =
  [
    Alcotest.test_case "crash plan records and arms by force ordinal" `Quick
      test_crash_plan_records_and_arms;
    Alcotest.test_case "tear modes shape the interrupted sector" `Quick
      test_tear_modes;
    Alcotest.test_case "non-Fs_error exception aborts the session, not the \
                        scheduler" `Quick test_run_op_catch_all;
    Alcotest.test_case "sweep of first intervals, all tears, zero violations"
      `Slow test_sweep_first_intervals_all_tears;
    Alcotest.test_case "scavenge-mode sweep recovers via the scavenger" `Slow
      test_sweep_scavenge_mode;
    Alcotest.test_case "sweep summaries are deterministic" `Slow
      test_sweep_deterministic;
    Alcotest.test_case "a wrap sweep with no wrap window is refused" `Quick
      test_sweep_without_wrap_refused;
  ]
