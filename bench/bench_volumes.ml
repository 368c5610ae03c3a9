(* Multi-volume scale-out sweep: N make/do clients sharded across V
   independent volumes (one device, one log, one group-commit batcher
   each) under the single cooperative scheduler.

   The single-volume ops/force curve flattens with client count (see
   bench clients: 7.1 at N=16 -> 8.7 at N=32) because one FNT
   and one log serialise every metadata mutation. Sharding removes that
   serialisation: each volume's force rides its own spindle, so forces
   on distinct volumes overlap in simulated time and the system pays
   one force latency per commit window while V forces complete. The
   headline metric is therefore *aggregate acked mutations per
   per-volume log force* — mutations retired per commit window —
   computed as acked * V / total log forces. For V = 1 it reduces to
   the plain ops/force of bench clients, so the two benches share a
   baseline.

   Workload parity: every row (including V = 1) runs bench clients'
   [Concurrent.makedo_scripts] spec ([Bench_clients.spec]), wrapped by
   [Concurrent.shard_scripts] so client k's namespace lives on volume
   k mod V (V = 1 gets the constant "v0/" prefix — same shape, one
   shard).

   Everything is simulated and seeded; the snapshot is byte-stable and
   diffed like a snapshot test. Its checks: 4 volumes >= 2x the
   single-volume figure at N = 32, monotone growth in volume count at
   N = 64, and the single-volume curve flattening from 32 to 64. *)

module S = Cedar_server.Server
module V = Cedar_volumes.Volume_set
module C = Cedar_workload.Concurrent
module J = Cedar_obs.Jsonb

let volume_counts = [ 1; 2; 4; 8 ]
let client_counts = [ 8; 16; 32; 64 ]

type row = { volumes : int; clients : int; r : S.report }

let run_one ~volumes ~clients =
  let clock = Cedar_util.Simclock.create () in
  let vset = V.create_fresh ~geom:Setup.geom ~clock volumes in
  let scripts = C.shard_scripts (C.makedo_scripts Bench_clients.spec ~clients) ~volumes in
  let r = S.serve_volumes vset scripts in
  { volumes; clients; r }

(* Mutations retired per commit window: forces on distinct volumes
   overlap on independent spindles, so the per-volume force count is
   the number of windows the run paid for. *)
let agg_ops_per_force row =
  if row.r.S.log_forces = 0 then 0.
  else
    float_of_int (row.r.S.mutations_acked * row.volumes)
    /. float_of_int row.r.S.log_forces

let row_json row =
  let r = row.r in
  J.Obj
    [
      ("volumes", J.Int row.volumes);
      ("clients", J.Int row.clients);
      ("duration_us", J.Int r.S.duration_us);
      ("total_ops", J.Int r.S.total_ops);
      ("mutations_acked", J.Int r.S.mutations_acked);
      ("log_forces", J.Int r.S.log_forces);
      ("server_forces", J.Int r.S.server_forces);
      ( "forces_per_volume",
        J.Float (float_of_int r.S.log_forces /. float_of_int row.volumes) );
      ("agg_ops_per_force", J.Float (agg_ops_per_force row));
      ("ops_per_force_pooled", J.Float r.S.ops_per_force);
      ("throughput_ops_s", J.Float (Bench_clients.throughput_ops_s r));
      ("commit_wait_p50_us", J.Float r.S.wait_p50_us);
      ("commit_wait_p99_us", J.Float r.S.wait_p99_us);
      ("batch_mean", J.Float r.S.batch_mean);
      ("errors", J.Int r.S.total_errors);
    ]

let find rows ~volumes ~clients =
  List.find (fun row -> row.volumes = volumes && row.clients = clients) rows

let build () =
  Setup.hr
    "multi-volume scale-out: N make/do clients sharded over V volumes";
  Printf.printf "  %7s %7s %9s %9s %9s %12s %11s %10s\n" "volumes" "clients"
    "acked" "forces" "forces/V" "agg op/force" "ops/s(sim)" "batch avg";
  let rows =
    List.concat_map
      (fun clients ->
        List.map
          (fun volumes ->
            let row = run_one ~volumes ~clients in
            let r = row.r in
            Printf.printf "  %7d %7d %9d %9d %9.1f %12.2f %11.1f %10.1f\n"
              volumes clients r.S.mutations_acked r.S.log_forces
              (float_of_int r.S.log_forces /. float_of_int volumes)
              (agg_ops_per_force row) (Bench_clients.throughput_ops_s r) r.S.batch_mean;
            row)
          volume_counts)
      client_counts
  in
  (* At N = 32 clients, four volumes must at least double the
     single-volume amortisation (whose figure tracks the 8.x of bench
     clients). *)
  let v1_32 = agg_ops_per_force (find rows ~volumes:1 ~clients:32) in
  let v4_32 = agg_ops_per_force (find rows ~volumes:4 ~clients:32) in
  let v4_over_v1 = if v1_32 = 0. then 0. else v4_32 /. v1_32 in
  (* At N = 64 clients the aggregate curve must not decline anywhere as
     volumes are added (ties allowed — two volume counts can land on the
     same window occupancy). *)
  let at_64 =
    List.map (fun v -> agg_ops_per_force (find rows ~volumes:v ~clients:64))
      volume_counts
  in
  let rec non_decreasing = function
    | a :: b :: rest -> a <= b && non_decreasing (b :: rest)
    | _ -> true
  in
  (* And the single-volume curve has flattened: doubling the clients
     from 32 to 64 buys little. *)
  let v1_64 = agg_ops_per_force (find rows ~volumes:1 ~clients:64) in
  Printf.printf "  v4/v1 at N=32: %.2f\n" v4_over_v1;
  Printf.printf "  agg op/force by volumes at N=64: [%s]\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") at_64));
  Printf.printf "  single volume 32->64: %.2f -> %.2f\n" v1_32 v1_64;
  J.Obj
    [
      ("bench", J.Str "multi-volume-scale-out");
      ("geometry", J.Str (Format.asprintf "%a" Cedar_disk.Geometry.pp Setup.geom));
      Bench_clients.workload_json "makedo-per-client-sharded";
      ( "metric",
        J.Str
          "agg_ops_per_force = mutations_acked * volumes / log_forces \
           (mutations per commit window; per-volume forces overlap on \
           independent spindles)" );
      ("shape", J.Obj [ ("v4_over_v1_at_32", J.Float v4_over_v1) ]);
      Setup.checks
        [
          ("v4_ge_2x_v1_at_32", v4_over_v1 >= 2.0);
          ("monotone_in_volumes_at_64", non_decreasing at_64);
          ("single_volume_flattens", v1_64 <= 1.25 *. v1_32);
        ];
      ("rows", J.Arr (List.map row_json rows));
    ]
