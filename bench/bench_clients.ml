(* Group-commit scaling sweep: N concurrent make/do clients against one
   FSD volume under the cooperative scheduler (§5.4 generalised). The
   interesting column is acked mutations per log force — group commit's
   whole point is that one synchronous force covers many clients'
   transactions, so it should grow with N until the disk saturates.

   Everything is simulated and seeded, so the snapshot is byte-stable:
   reviewers diff it like a snapshot test. Its check is the paper's
   claim: amortisation strictly improves with client count. *)

module S = Cedar_server.Server
module C = Cedar_workload.Concurrent
module J = Cedar_obs.Jsonb
module V = Cedar_volumes.Volume_set

let client_counts = [ 1; 2; 4; 8; 16; 32 ]

let spec = { C.default_spec with C.modules = 8; rounds = 2; think_us = 50_000 }

type row = { n : int; r : S.report }

let run_one n =
  let vset = V.create_fresh ~geom:Setup.geom ~clock:(Cedar_util.Simclock.create ()) 1 in
  { n; r = S.serve_volumes vset (C.makedo_scripts spec ~clients:n) }

let throughput_ops_s (r : S.report) =
  if r.S.duration_us = 0 then 0.
  else float_of_int r.S.total_ops /. Cedar_util.Simclock.s_of_us r.S.duration_us

(* The workload field of this snapshot and of bench volumes, which runs
   [spec] sharded; [kind] names which. *)
let workload_json kind =
  ( "workload",
    J.Obj
      [
        ("kind", J.Str kind);
        ("modules", J.Int spec.C.modules);
        ("deps_per_module", J.Int spec.C.deps_per_module);
        ("rounds", J.Int spec.C.rounds);
        ("source_bytes", J.Int spec.C.source_bytes);
        ("think_us", J.Int spec.C.think_us);
        ("seed", J.Int spec.C.seed);
      ] )

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
      ("throughput_ops_s", J.Float (throughput_ops_s r));
      ("commit_wait_mean_us", J.Float r.S.wait_mean_us);
      ("commit_wait_p50_us", J.Float r.S.wait_p50_us);
      ("commit_wait_p99_us", J.Float r.S.wait_p99_us);
      ("commit_wait_max_us", J.Float r.S.wait_max_us);
      ("batch_mean", J.Float r.S.batch_mean);
      ("batch_max", J.Float r.S.batch_max);
      ("errors", J.Int r.S.total_errors);
    ]

let rec monotone = function
  | a :: (b :: _ as rest) -> b.r.S.ops_per_force > a.r.S.ops_per_force && monotone rest
  | _ -> true

let build () =
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
        r.S.total_ops r.S.log_forces r.S.ops_per_force (throughput_ops_s r)
        (r.S.wait_p50_us /. 1000.)
        (r.S.wait_p99_us /. 1000.)
        r.S.batch_mean)
    rows;
  J.Obj
    [
      ("bench", J.Str "group-commit-scaling");
      ("geometry", J.Str (Format.asprintf "%a" Cedar_disk.Geometry.pp Setup.geom));
      workload_json "makedo-per-client";
      Setup.checks [ ("ops_per_force_monotone", monotone rows) ];
      ("rows", J.Arr (List.map row_json rows));
    ]
