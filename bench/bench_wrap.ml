(* Log-wrap endurance and the wrap-window crash sweep (bench wrap).

   Two halves, both deterministic and recorded in one snapshot:

   - endurance rows: the faultsweep harness's clean run of the churn
     workload on the small and tiny geometries, given the one
     crash-contract verdict, with wrap counts, background home-write
     bursts, reclaim stalls, and the zero-replay clean reboot;
   - sweep rows: the wrap-mode crash sweep (crashes planted only inside
     the wrap window — third entries and their neighbours) once per
     tear mode on the tiny geometry, which must report zero
     recovery-contract violations.

   The violation counters in the JSON are the regression surface: any
   non-zero value is a recovery bug, and the snapshot's no_violations
   check fails on it. *)

open Cedar_disk
module F = Cedar_server.Faultsweep
module J = Cedar_obs.Jsonb

let endurance_rows () =
  List.map
    (fun (label, geom) ->
      ( label,
        F.clean_run ~geom ~clients:2
          (F.Wrap Cedar_workload.Concurrent.default_churn) ))
    [ ("small_test", Geometry.small_test); ("tiny_test", Geometry.tiny_test) ]

let clean_violations r =
  List.length r.F.c_violations + List.length r.F.c_violations_after_reboot

let sweep_rows () =
  List.map
    (fun tear ->
      let cfg =
        {
          F.default_cfg with
          F.tears = [ tear ];
          workload = F.Wrap F.default_wrap_spec;
        }
      in
      (F.tear_name tear, F.sweep cfg))
    F.all_tears

let endurance_json (label, r) =
  J.Obj
    [
      ("geometry", J.Str label);
      ("mutations_acked", J.Int r.F.c_report.Cedar_server.Server.mutations_acked);
      ("log_records", J.Int r.F.c_log_records);
      ("third_entries", J.Int r.F.c_third_entries);
      ("home_write_bursts", J.Int r.F.c_home_write_bursts);
      ("reclaim_stalls", J.Int r.F.c_reclaim_stalls);
      ("fnt_home_writes", J.Int r.F.c_fnt_home_writes);
      ("replayed_after_shutdown", J.Int r.F.c_replayed_after_shutdown);
      ("digest_match", J.Bool r.F.c_digest_match);
      ("violations", J.Int (clean_violations r));
    ]

let sweep_json (label, s) =
  J.Obj
    (("tear", J.Str label)
    :: ("intervals_swept", J.Int (List.length s.F.sw_intervals))
    :: Bench_faultsweep.counts_json s)

let build () =
  Setup.hr "log-wrap endurance + wrap-window crash sweep (cedar churn / faultsweep --wrap)";
  let es = endurance_rows () in
  Printf.printf "  %-10s %6s %7s %7s %7s %7s %7s %6s\n" "geometry" "acked"
    "records" "thirds" "bursts" "stalls" "replay" "clean";
  List.iter
    (fun (label, r) ->
      Printf.printf "  %-10s %6d %7d %7d %7d %7d %7d %6s\n" label
        r.F.c_report.Cedar_server.Server.mutations_acked r.F.c_log_records
        r.F.c_third_entries r.F.c_home_write_bursts r.F.c_reclaim_stalls
        r.F.c_replayed_after_shutdown
        (if F.passed r then "yes" else "NO"))
    es;
  let ss = sweep_rows () in
  Printf.printf "  %-9s %9s %7s %6s %7s %12s %10s\n" "tear" "intervals"
    "points" "runs" "replay" "twin-repair" "violations";
  List.iter
    (fun (label, s) ->
      Printf.printf "  %-9s %9d %7d %6d %7d %12d %10d\n" label
        (List.length s.F.sw_intervals)
        s.F.sw_points s.F.sw_runs s.F.sw_replay s.F.sw_twin_repair
        (List.length s.F.sw_violations))
    ss;
  let violations =
    List.fold_left (fun n (_, s) -> n + List.length s.F.sw_violations) 0 ss
    + List.fold_left (fun n (_, r) -> n + clean_violations r) 0 es
  in
  J.Obj
    [
      ("bench", J.Str "log-wrap");
      ("violations_total", J.Int violations);
      Setup.checks
        [
          ("no_violations", violations = 0);
          ( "endurance_digests_match",
            List.for_all (fun (_, r) -> r.F.c_digest_match) es );
        ];
      ("endurance", J.Arr (List.map endurance_json es));
      ("wrap_sweep", J.Arr (List.map sweep_json ss));
    ]
