(* Disk-scheduler sweep (ISSUE 10): a CLIENTS x QUEUE_DEPTH x policy
   matrix over the mixed create/read churn workload. With a real request
   queue the service order is the scheduler's choice, so the questions
   the paper's disk-arm discussion raises become measurable: how much
   aggregate seek time does a reordering policy (elevator, SSTF) save
   over FIFO, and does that show up where clients feel it (p99 op
   latency)?

   Two built-in regression checks ride along:

   - shape: at queue depth >= 4 a reordering policy must beat FIFO on
     both total seek time and p99 latency (the scheduler exists for a
     reason);
   - degeneracy: at depth 1 there is nothing to reorder, so every
     policy's row must be identical to the others and to a run with the
     queue disabled entirely (the depth-1 pin -- queueing is off, the
     synchronous path byte-for-byte).

   Everything is simulated and seeded, so BENCH_QDEPTH.json is
   byte-stable and diffable like a snapshot test. *)

open Cedar_util
open Cedar_disk
module Params = Cedar_fsd.Params
module Fsd = Cedar_fsd.Fsd
module S = Cedar_server.Server
module C = Cedar_workload.Concurrent
module M = Cedar_obs.Metrics
module J = Cedar_obs.Jsonb

let client_counts = [ 4; 8 ]
let depths = [ 1; 4; 8 ]
let policies = [ Device.Fifo; Device.Elevator; Device.Sstf ]

(* Create payloads above [small_file_bytes] (4000) so creates write data
   sectors through the queue rather than riding the log alone; no
   scripted forces, so the only drain barriers are the group commits the
   server itself schedules -- the queue actually fills. *)
let spec =
  {
    C.default_churn with
    C.churn_ops = 150;
    bytes_min = 6_000;
    bytes_max = 20_000;
    churn_think_us = 2_000;
    force_every = 0;
  }

type cell = {
  c_clients : int;
  c_depth : int;  (** 0 = queue disabled (baseline) *)
  c_policy : Device.policy;
  c_r : S.report;
  c_io : Iostats.t;
  c_lat_p50 : float;
  c_lat_p99 : float;
  c_lat_max : float;
}

let pctl st p =
  if Stats.n st = 0 then 0.0 else Stats.percentile st p

let run_cell ~clients ~policy ~depth =
  let clock = Simclock.create () in
  let device = Device.create ~clock Setup.geom in
  let params =
    { Params.default with Params.disk_sched = policy; disk_qdepth = depth }
  in
  Fsd.format device params;
  let fs, _report = Fsd.boot ~params device in
  let scripts = C.churn_scripts spec ~clients in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  let lat =
    match M.read_dist (Device.metrics device) "server.op_latency_us" with
    | Some st -> st
    | None -> Stats.create ()
  in
  {
    c_clients = clients;
    c_depth = depth;
    c_policy = policy;
    c_r = r;
    c_io = Iostats.copy (Device.stats device);
    c_lat_p50 = pctl lat 0.50;
    c_lat_p99 = pctl lat 0.99;
    c_lat_max = pctl lat 1.0;
  }

(* The measured numbers only -- no policy/depth labels -- so depth-1
   rows can be compared for the degeneracy pin by string equality. *)
let measures_json c =
  let r = c.c_r and io = c.c_io in
  J.Obj
    [
      ("duration_us", J.Int r.S.duration_us);
      ("total_ops", J.Int r.S.total_ops);
      ("mutations_acked", J.Int r.S.mutations_acked);
      ("log_forces", J.Int r.S.log_forces);
      ("ios", J.Int io.Iostats.ios);
      ("seeks", J.Int io.Iostats.seeks);
      ("seek_us", J.Int io.Iostats.seek_us);
      ("rotation_us", J.Int io.Iostats.rotation_us);
      ("transfer_us", J.Int io.Iostats.transfer_us);
      ("busy_us", J.Int io.Iostats.busy_us);
      ("op_lat_p50_us", J.Float c.c_lat_p50);
      ("op_lat_p99_us", J.Float c.c_lat_p99);
      ("op_lat_max_us", J.Float c.c_lat_max);
      ("errors", J.Int r.S.total_errors);
    ]

let row_json c =
  J.Obj
    [
      ("clients", J.Int c.c_clients);
      ("depth", J.Int c.c_depth);
      ( "policy",
        J.Str
          (if c.c_depth = 0 then "none"
           else Device.policy_to_string c.c_policy) );
      ("measures", measures_json c);
    ]

let find cells ~clients ~depth ~policy =
  List.find
    (fun c -> c.c_clients = clients && c.c_depth = depth && c.c_policy = policy)
    cells

(* Shape: at depth >= 4 some reordering policy strictly beats FIFO on
   both aggregate seek time and p99 latency, for every client count. *)
let shape_checks cells =
  List.concat_map
    (fun clients ->
      List.filter_map
        (fun depth ->
          if depth < 4 then None
          else begin
            let fifo = find cells ~clients ~depth ~policy:Device.Fifo in
            let elev = find cells ~clients ~depth ~policy:Device.Elevator in
            let sstf = find cells ~clients ~depth ~policy:Device.Sstf in
            let seek c = c.c_io.Iostats.seek_us in
            let beats c =
              seek c < seek fifo && c.c_lat_p99 < fifo.c_lat_p99
            in
            Some (clients, depth, beats elev, beats sstf)
          end)
        depths)
    client_counts

(* Degeneracy: at depth 1 every policy row equals the others and the
   queue-off baseline, measure for measure. *)
let depth1_checks cells baselines =
  List.map
    (fun clients ->
      let base =
        J.to_string
          (measures_json (List.find (fun c -> c.c_clients = clients) baselines))
      in
      let same =
        List.for_all
          (fun policy ->
            J.to_string (measures_json (find cells ~clients ~depth:1 ~policy))
            = base)
          policies
      in
      (clients, same))
    client_counts

let default_out = "BENCH_QDEPTH.json"

let run ?out () =
  let out = match out with Some p -> p | None -> default_out in
  Setup.hr
    "disk scheduler sweep: clients x queue depth x policy (churn workload)";
  let cells =
    List.concat_map
      (fun clients ->
        List.concat_map
          (fun depth ->
            List.map
              (fun policy -> run_cell ~clients ~policy ~depth)
              policies)
          depths)
      client_counts
  in
  let baselines =
    List.map
      (fun clients -> run_cell ~clients ~policy:Device.Fifo ~depth:0)
      client_counts
  in
  Printf.printf "  %7s %6s %9s %10s %8s %12s %12s\n" "clients" "depth" "policy"
    "seek ms" "ios" "p50 ms" "p99 ms";
  List.iter
    (fun c ->
      Printf.printf "  %7d %6d %9s %10.1f %8d %12.1f %12.1f\n" c.c_clients
        c.c_depth
        (if c.c_depth = 0 then "none" else Device.policy_to_string c.c_policy)
        (float_of_int c.c_io.Iostats.seek_us /. 1000.)
        c.c_io.Iostats.ios
        (c.c_lat_p50 /. 1000.)
        (c.c_lat_p99 /. 1000.))
    (baselines @ cells);
  let shapes = shape_checks cells in
  let d1 = depth1_checks cells baselines in
  let shape_ok =
    List.for_all (fun (_, _, elev, sstf) -> elev || sstf) shapes
  in
  let depth1_ok = List.for_all snd d1 in
  List.iter
    (fun (clients, depth, elev, sstf) ->
      if not (elev || sstf) then
        Printf.printf
          "  WARNING: no policy beats fifo at clients=%d depth=%d (elevator=%b sstf=%b)\n"
          clients depth elev sstf)
    shapes;
  List.iter
    (fun (clients, same) ->
      if not same then
        Printf.printf
          "  WARNING: depth-1 rows differ from the queue-off baseline at clients=%d\n"
          clients)
    d1;
  Printf.printf "  shape checks %s, depth-1 degeneracy %s\n"
    (if shape_ok then "ok" else "FAILED")
    (if depth1_ok then "ok" else "FAILED");
  let obj =
    J.Obj
      [
        ("bench", J.Str "disk-scheduler-sweep");
        ("geometry", J.Str (Format.asprintf "%a" Geometry.pp Setup.geom));
        ( "workload",
          J.Obj
            [
              ("kind", J.Str "churn-per-client");
              ("slots", J.Int spec.C.slots);
              ("churn_ops", J.Int spec.C.churn_ops);
              ("bytes_min", J.Int spec.C.bytes_min);
              ("bytes_max", J.Int spec.C.bytes_max);
              ("think_us", J.Int spec.C.churn_think_us);
              ("seed", J.Int spec.C.churn_seed);
            ] );
        ( "shape_checks",
          J.Arr
            (List.map
               (fun (clients, depth, elev, sstf) ->
                 J.Obj
                   [
                     ("clients", J.Int clients);
                     ("depth", J.Int depth);
                     ("elevator_beats_fifo", J.Bool elev);
                     ("sstf_beats_fifo", J.Bool sstf);
                   ])
               shapes) );
        ("shape_ok", J.Bool shape_ok);
        ( "depth1_identical",
          J.Arr
            (List.map
               (fun (clients, same) ->
                 J.Obj [ ("clients", J.Int clients); ("identical", J.Bool same) ])
               d1) );
        ("depth1_ok", J.Bool depth1_ok);
        ("baselines", J.Arr (List.map row_json baselines));
        ("rows", J.Arr (List.map row_json cells));
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string_pretty obj);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out
