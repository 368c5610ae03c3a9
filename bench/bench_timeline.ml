(* The saturation-knee sweep (bench timeline).

   Drives the deterministic open-loop workload (Poisson arrivals pinned
   to the virtual clock, heavy-tailed sizes, zipfian names) through the
   concurrent server at a ladder of offered rates, with the telemetry
   monitor sampling every 100 ms of virtual time. Each rung gets a
   fresh small-geometry volume, so rungs are independent and the whole
   sweep is reproducible from the seed.

   What the snapshot's checks assert (the regression surface):

   - device busy fraction and commit-wait p99 rise monotonically with
     offered load (within a small tolerance for the flat region);
   - achieved throughput tracks offered load below the knee and flattens
     above it;
   - the backlog shows where saturation does: the mean number of ops
     queued before execute (sat.phase_queue) stays under one at the
     lowest rung and exceeds half the sessions at the highest;
   - the lowest rung, run twice, produces byte-identical timelines
     (the monitor's determinism contract, end to end).

   Each rung's row embeds a compact per-sample track of the saturation
   gauges; the full timeline JSON would dwarf the repo, and the derived
   gauges are what the knee shows up in. *)

open Cedar_disk
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module Fsd = Cedar_fsd.Fsd
module Mon = Cedar_obs.Monitor
module Timeline = Cedar_obs.Timeline
module J = Cedar_obs.Jsonb
module V = Cedar_volumes.Volume_set

(* The ladder, which bench breakdown re-drives: one fresh
   small-geometry volume per rung, [clients] sessions sharing [arrivals]
   open-loop arrivals at each offered rate. *)
let geom = Geometry.small_test
let clients = 16
let arrivals = 240
let rates = [ 4.0; 8.0; 16.0; 32.0; 64.0 ]

let rung_volume params =
  V.create_fresh ~geom ~params ~clock:(Cedar_util.Simclock.create ()) 1

let rung_scripts rate =
  C.open_loop { C.default_open with C.ol_rate_per_s = rate; ol_ops = arrivals } ~clients

let ladder_json =
  [ ("geometry", J.Str "small_test"); ("clients", J.Int clients); ("arrivals", J.Int arrivals) ]

(* The half-second commit interval of §5.4 would pin every commit wait
   to ~500 ms and hide the knee in the wait tail behind the timer; for
   this sweep the interval is shortened so that queueing — a late force
   behind in-flight ops, longer forces with fuller batches — dominates
   p99 instead. *)
let commit_interval_us = 100_000

let params =
  { (Cedar_fsd.Params.for_geometry geom) with
    Cedar_fsd.Params.commit_interval_us }

type rung = {
  rate : float;
  report : S.report;
  samples : Mon.sample list;
  timeline_json : string;  (** canonical bytes, for the determinism check *)
}

let run_rung rate =
  let vset = rung_volume params in
  let m = Fsd.enable_monitor (V.vol vset 0) in
  let report = S.serve_volumes vset (rung_scripts rate) in
  let samples = Mon.samples m in
  {
    rate;
    report;
    samples;
    timeline_json = J.to_string (Timeline.to_json samples);
  }

let derived name (s : Mon.sample) =
  Option.value ~default:0.0 (List.assoc_opt name s.Mon.derived)

let mean_derived name samples =
  match samples with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc s -> acc +. derived name s) 0.0 samples
    /. float_of_int (List.length samples)

let max_derived name samples =
  List.fold_left (fun acc s -> Stdlib.max acc (derived name s)) 0.0 samples

let achieved_ops_s r =
  float_of_int r.S.total_ops *. 1e6 /. float_of_int (Stdlib.max 1 r.S.duration_us)

(* Committed snapshots stay diffable when they stay small: keep every
   stride-th sample, at most [cap] points per rung. *)
let downsample cap samples =
  let n = List.length samples in
  let stride = Stdlib.max 1 ((n + cap - 1) / cap) in
  List.filteri (fun i _ -> i mod stride = 0) samples

(* One compact track point per sample: just the knee-relevant gauges. *)
let track_json (s : Mon.sample) =
  J.Obj
    [
      ("at_us", J.Int s.Mon.at_us);
      ("busy", J.Float (derived "sat.device_busy" s));
      ("fill", J.Float (derived "sat.log_third_fill" s));
      ("queue", J.Float (derived "sat.queue_depth" s));
      ("phase_queue", J.Float (derived "sat.phase_queue" s));
      ( "wait_p99_us",
        match List.assoc_opt "server.commit_wait_us" s.Mon.dists with
        | Some w -> J.Float w.Cedar_obs.Metrics.p99
        | None -> J.Float 0.0 );
    ]

let rung_json r =
  J.Obj
    [
      ("offered_ops_s", J.Float r.rate);
      ("achieved_ops_s", J.Float (achieved_ops_s r.report));
      ("duration_us", J.Int r.report.S.duration_us);
      ("total_ops", J.Int r.report.S.total_ops);
      ("mutations_acked", J.Int r.report.S.mutations_acked);
      ("log_forces", J.Int r.report.S.log_forces);
      ("ops_per_force", J.Float r.report.S.ops_per_force);
      ("wait_p50_us", J.Float r.report.S.wait_p50_us);
      ("wait_p99_us", J.Float r.report.S.wait_p99_us);
      ("busy_mean", J.Float (mean_derived "sat.device_busy" r.samples));
      ("busy_max", J.Float (max_derived "sat.device_busy" r.samples));
      ("fill_max", J.Float (max_derived "sat.log_third_fill" r.samples));
      ("samples", J.Int (List.length r.samples));
      ("track", J.Arr (List.map track_json (downsample 32 r.samples)));
    ]

(* The knee contract, as named checks so the JSON records exactly which
   (if any) failed. The flat region below the knee can jitter by a few
   percent, hence the tolerances. *)
let checks rungs twice =
  let pairs = List.combine (List.tl rungs) (List.filteri (fun i _ -> i < List.length rungs - 1) rungs) in
  (* Relative tolerance: the rise through the knee is the signal; in
     the saturated plateau the figures are load-independent by design
     (waits bound by force cadence, busy pinned at capacity) and may
     wobble a few percent between rungs. *)
  let monotone name f tol =
    (name, List.for_all (fun (hi, lo) -> f hi >= f lo *. (1.0 -. tol)) pairs)
  in
  let first = List.hd rungs and last = List.hd (List.rev rungs) in
  let queued r = mean_derived "sat.phase_queue" r.samples in
  [
    monotone "busy_monotone" (fun r -> mean_derived "sat.device_busy" r.samples) 0.05;
    monotone "wait_p99_monotone" (fun r -> r.report.S.wait_p99_us) 0.15;
    ( "queue_builds_past_knee",
      queued first < 1.0 && queued last > float_of_int clients /. 2.0 );
    ( "throughput_flattens",
      achieved_ops_s last.report < last.rate *. 0.9
      && achieved_ops_s first.report > first.rate *. 0.9 );
    ("deterministic", first.timeline_json = twice.timeline_json);
  ]

let build () =
  Setup.hr "open-loop saturation sweep (cedar serve --open-loop, telemetry monitor)";
  let rungs = List.map run_rung rates in
  let twice = run_rung (List.hd rates) in
  Printf.printf "  %8s %9s %6s %7s %9s %9s %7s\n" "offered" "achieved"
    "ops" "queued" "busy" "p99(ms)" "samples";
  List.iter
    (fun r ->
      Printf.printf "  %8.1f %9.2f %6d %7.2f %9.3f %9.1f %7d\n" r.rate
        (achieved_ops_s r.report) r.report.S.total_ops
        (mean_derived "sat.phase_queue" r.samples)
        (mean_derived "sat.device_busy" r.samples)
        (r.report.S.wait_p99_us /. 1000.)
        (List.length r.samples))
    rungs;
  J.Obj
    ((("bench", J.Str "timeline") :: ladder_json)
    @ [
        ("commit_interval_us", J.Int commit_interval_us);
        ("monitor_interval_us", J.Int Cedar_fsd.Params.monitor_interval_us);
        Setup.checks (checks rungs twice);
        ("rungs", J.Arr (List.map rung_json rungs));
      ])
