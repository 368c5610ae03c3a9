(* Group-commit scaling sweep: N concurrent make/do clients against one
   FSD volume under the cooperative scheduler (§5.4 generalised). The
   interesting column is acked mutations per log force — group commit's
   whole point is that one synchronous force covers many clients'
   transactions, so it should grow with N until the disk saturates.

   Everything is simulated and seeded, so the emitted JSON
   (BENCH_GROUPCOMMIT.json, committed at the repo root) is byte-stable:
   reviewers diff it like a snapshot test. *)

module S = Cedar_server.Server
module C = Cedar_workload.Concurrent
module J = Cedar_obs.Jsonb

let client_counts = [ 1; 2; 4; 8; 16; 32 ]

let spec = { C.default_spec with C.modules = 8; rounds = 2; think_us = 50_000 }

type row = { n : int; r : S.report }

let run_one n =
  let _device, fs = Setup.fsd_volume () in
  let scripts = C.makedo_scripts spec ~clients:n in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  { n; r }

let throughput_ops_s row =
  if row.r.S.duration_us = 0 then 0.
  else
    float_of_int row.r.S.total_ops
    /. Cedar_util.Simclock.s_of_us row.r.S.duration_us

let row_json row =
  let r = row.r in
  J.Obj
    [
      ("clients", J.Int row.n);
      ("duration_us", J.Int r.S.duration_us);
      ("total_ops", J.Int r.S.total_ops);
      ("mutations_acked", J.Int r.S.mutations_acked);
      ("log_forces", J.Int r.S.log_forces);
      ("server_forces", J.Int r.S.server_forces);
      ("ops_per_force", J.Float r.S.ops_per_force);
      ("throughput_ops_s", J.Float (throughput_ops_s row));
      ("commit_wait_mean_us", J.Float r.S.wait_mean_us);
      ("commit_wait_p50_us", J.Float r.S.wait_p50_us);
      ("commit_wait_p99_us", J.Float r.S.wait_p99_us);
      ("commit_wait_max_us", J.Float r.S.wait_max_us);
      ("batch_mean", J.Float r.S.batch_mean);
      ("batch_max", J.Float r.S.batch_max);
      ("rejected", J.Int r.S.total_rejected);
      ("errors", J.Int r.S.total_errors);
    ]

let default_out = "BENCH_GROUPCOMMIT.json"

let run ?out () =
  let out = match out with Some p -> p | None -> default_out in
  Setup.hr "group-commit scaling: N concurrent make/do clients (cedar serve)";
  Printf.printf
    "  %7s %9s %9s %8s %11s %12s %12s %10s\n"
    "clients" "ops" "forces" "ops/force" "ops/s(sim)" "wait p50 ms" "wait p99 ms"
    "batch avg";
  let rows = List.map run_one client_counts in
  List.iter
    (fun row ->
      let r = row.r in
      Printf.printf "  %7d %9d %9d %8.1f %11.1f %12.1f %12.1f %10.1f\n" row.n
        r.S.total_ops r.S.log_forces r.S.ops_per_force (throughput_ops_s row)
        (r.S.wait_p50_us /. 1000.)
        (r.S.wait_p99_us /. 1000.)
        r.S.batch_mean)
    rows;
  (* The paper's claim, as a regression check the harness itself enforces:
     amortisation strictly improves with client count. *)
  let rec monotone = function
    | a :: (b : row) :: rest ->
      if b.r.S.ops_per_force <= a.r.S.ops_per_force then begin
        Printf.printf
          "  WARNING: ops/force not monotone (%d clients: %.2f, %d clients: %.2f)\n"
          a.n a.r.S.ops_per_force b.n b.r.S.ops_per_force;
        false
      end
      else monotone (b :: rest)
    | _ -> true
  in
  let mono = monotone rows in
  let obj =
    J.Obj
      [
        ("bench", J.Str "group-commit-scaling");
        ("geometry", J.Str (Format.asprintf "%a" Cedar_disk.Geometry.pp Setup.geom));
        ( "workload",
          J.Obj
            [
              ("kind", J.Str "makedo-per-client");
              ("modules", J.Int spec.C.modules);
              ("deps_per_module", J.Int spec.C.deps_per_module);
              ("rounds", J.Int spec.C.rounds);
              ("source_bytes", J.Int spec.C.source_bytes);
              ("think_us", J.Int spec.C.think_us);
              ("seed", J.Int spec.C.seed);
            ] );
        ("ops_per_force_monotone", J.Bool mono);
        ("rows", J.Arr (List.map row_json rows));
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string_pretty obj);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out
