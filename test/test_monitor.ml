(* The telemetry monitor: hand-computed interval maths over a private
   registry, sliding-window percentiles, ring eviction, the end-to-end
   determinism contract through the server, the zero-I/O sampling
   guarantee, and the open-loop generator the monitor exists to
   observe. *)

open Cedar_util
open Cedar_disk
open Cedar_obs
module Fsd = Cedar_fsd.Fsd
module Params = Cedar_fsd.Params
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let close = Alcotest.float 1e-9

let small_fs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  (device, fst (Fsd.boot device))

(* ------------------------------------------------------------------ *)
(* Interval maths, by hand                                             *)

let test_hand_computed_intervals () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let busy = ref 0 in
  let work = Metrics.counter m "work.done" in
  Metrics.gauge m "dev.busy_us" (fun () -> !busy);
  (* pre-monitor history: the baseline must swallow it *)
  Metrics.add work 7;
  busy := 25;
  let mon = Monitor.create ~interval_us:100 ~now:(fun () -> !clock) m in
  Monitor.derive mon "busy_frac" (fun v ->
      float_of_int (v.Monitor.delta "dev.busy_us")
      /. float_of_int v.Monitor.dt_us);
  (* interval 1: 3 units of work, 40 us of device busy *)
  Metrics.add work 3;
  busy := 65;
  clock := 100;
  let s1 = Monitor.sample_now mon in
  check int "dt spans the interval" 100 s1.Monitor.dt_us;
  check int "counter reports the delta, not the total" 3
    (List.assoc "work.done" s1.Monitor.counters);
  check int "gauge reports the point value" 65
    (List.assoc "dev.busy_us" s1.Monitor.gauges);
  check close "busy fraction = 40/100" 0.4
    (List.assoc "busy_frac" s1.Monitor.derived);
  (* interval 2: completely idle *)
  clock := 200;
  let s2 = Monitor.sample_now mon in
  check int "idle interval delta" 0 (List.assoc "work.done" s2.Monitor.counters);
  check close "idle busy fraction" 0.0
    (List.assoc "busy_frac" s2.Monitor.derived);
  (* interval 3: late sample — dt stretches, the fraction still lands *)
  Metrics.add work 5;
  busy := 215;
  clock := 350;
  let s3 = Monitor.sample_now mon in
  check int "stretched dt" 150 s3.Monitor.dt_us;
  check int "delta across the stretch" 5
    (List.assoc "work.done" s3.Monitor.counters);
  check close "saturated busy fraction = 150/150" 1.0
    (List.assoc "busy_frac" s3.Monitor.derived);
  check int "three samples retained" 3 (Monitor.count mon)

let test_cadence () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let mon = Monitor.create ~interval_us:100 ~now:(fun () -> !clock) m in
  check int "next sample due one interval after creation" 100
    (Monitor.due_at mon);
  clock := 99;
  Monitor.maybe_sample mon;
  check int "one tick early: no sample" 0 (Monitor.total mon);
  clock := 100;
  Monitor.maybe_sample mon;
  check int "on the due tick: sample" 1 (Monitor.total mon);
  Monitor.maybe_sample mon;
  check int "same instant: no second sample" 1 (Monitor.total mon);
  check int "cadence advances from the sample time" 200 (Monitor.due_at mon)

(* ------------------------------------------------------------------ *)
(* Sliding-window percentiles                                          *)

let test_window_percentiles () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let lat = Metrics.dist m "lat_us" in
  let mon =
    Monitor.create ~window:10 ~interval_us:100 ~now:(fun () -> !clock) m
  in
  Monitor.watch_dist mon "lat_us";
  (* no values recorded yet: n = 0 *)
  clock := 100;
  let s0 = Monitor.sample_now mon in
  check int "empty window" 0
    (List.assoc "lat_us" s0.Monitor.dists).Metrics.n;
  (* 1..100 recorded; the window keeps the newest 10 (91..100) *)
  for i = 1 to 100 do
    Stats.add lat (float_of_int i)
  done;
  clock := 200;
  let s1 = Monitor.sample_now mon in
  let w = List.assoc "lat_us" s1.Monitor.dists in
  check int "window holds its bound" 10 w.Metrics.n;
  check close "p50 by nearest rank over 91..100" 95.0 w.Metrics.p50;
  check close "p90 by nearest rank" 99.0 w.Metrics.p90;
  check close "p99 rounds up to the max" 100.0 w.Metrics.p99;
  (* window slides: three more values push out 91..93 *)
  List.iter (fun v -> Stats.add lat v) [ 7.0; 7.0; 7.0 ];
  clock := 300;
  let s2 = Monitor.sample_now mon in
  let w2 = List.assoc "lat_us" s2.Monitor.dists in
  check int "still bounded" 10 w2.Metrics.n;
  (* window now 94..100,7,7,7; sorted 7,7,7,94..100: p50 = 5th = 95 *)
  check close "slid p50" 95.0 w2.Metrics.p50

(* ------------------------------------------------------------------ *)
(* Ring eviction                                                       *)

let test_ring_eviction () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let mon = Monitor.create ~ring:8 ~interval_us:10 ~now:(fun () -> !clock) m in
  for i = 1 to 20 do
    clock := i * 10;
    ignore (Monitor.sample_now mon : Monitor.sample)
  done;
  check int "retained capped at the ring" 8 (Monitor.count mon);
  check int "lifetime total keeps counting" 20 (Monitor.total mon);
  check int "evictions counted" 12 (Monitor.evicted mon);
  let ats = List.map (fun s -> s.Monitor.at_us) (Monitor.samples mon) in
  check (Alcotest.list int) "oldest-first, newest survive"
    [ 130; 140; 150; 160; 170; 180; 190; 200 ]
    ats;
  check bool "last_sample is the newest" true
    (match Monitor.last_sample mon with
    | Some s -> s.Monitor.at_us = 200
    | None -> false)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism through the server                           *)

let open_loop_timelines () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  let mon = Fsd.enable_monitor fs in
  let scripts =
    C.open_loop
      { C.default_open with C.ol_ops = 80; ol_rate_per_s = 30.0 }
      ~clients:4
  in
  let _r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  let samples = Monitor.samples mon in
  (Jsonb.to_string (Timeline.to_json samples), List.length samples)

let test_timeline_determinism () =
  let j1, n1 = open_loop_timelines () in
  let j2, n2 = open_loop_timelines () in
  check bool "enough samples to mean anything" true (n1 >= 10);
  check int "same sample count" n1 n2;
  check string "byte-identical JSON timelines" j1 j2;
  match Jsonb.of_string j1 with
  | Ok (Jsonb.Arr l) ->
    check int "JSON parses back to one object per sample" n1 (List.length l);
    (* every sample carries the saturation gauges the sweep keys on *)
    let has group key = function
      | Jsonb.Obj fields -> (
        match List.assoc_opt group fields with
        | Some (Jsonb.Obj g) -> List.mem_assoc key g
        | _ -> false)
      | _ -> false
    in
    check bool "derived gauges present" true
      (List.for_all
         (fun s ->
           has "derived" "sat.device_busy" s
           && has "derived" "sat.op_rate_s" s
           && has "dists" "server.commit_wait_us" s)
         l)
  | Ok _ -> Alcotest.fail "timeline JSON is not an array"
  | Error m -> Alcotest.failf "timeline JSON does not parse: %s" m

(* Sampling must cost no device I/O: the same run with the monitor on
   and off performs identical I/O and ends at the identical virtual
   time. *)
let test_sampling_is_io_free () =
  let run monitored =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.small_test in
    Fsd.format device (Params.for_geometry Geometry.small_test);
    let fs, _ = Fsd.boot device in
    if monitored then ignore (Fsd.enable_monitor fs : Monitor.t);
    for i = 0 to 19 do
      ignore
        (Fsd.create fs
           ~name:(Printf.sprintf "m/f%02d" i)
           (Bytes.make 700 'x'));
      Fsd.tick fs ~us:60_000
    done;
    Fsd.force fs;
    ( Option.value ~default:0 (Metrics.read (Device.metrics device) "device.ios"),
      Simclock.now clock,
      match Fsd.monitor fs with Some m -> Monitor.total m | None -> 0 )
  in
  let ios_off, t_off, _ = run false in
  let ios_on, t_on, taken = run true in
  check bool "monitor actually sampled" true (taken > 0);
  check int "identical device I/O with the monitor on" ios_off ios_on;
  check int "identical virtual end time" t_off t_on

(* An own-timeline or queued device charges busy time on its horizon, which
   can run ahead of the sampling clock: one interval may see more busy
   microseconds than wall microseconds. The gauge must clamp at 1.0
   (saturated) rather than report a fraction above one (ISSUE 10
   bugfix). *)
let test_device_busy_clamped () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  Device.set_queue device ~policy:Device.Sstf ~depth:8;
  let mon = Fsd.enable_monitor ~interval_us:1_000 fs in
  let busy0 =
    Option.value ~default:0 (Metrics.read (Device.metrics device) "device.busy_us")
  in
  (* A burst of large creates back to back: the queued device does all
     the work on its horizon while the clock stands still. *)
  for i = 0 to 11 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "b/f%02d" i) (Bytes.make 6_000 'z'))
  done;
  Fsd.force fs;
  (* One short interval elapses; the monitor samples it. *)
  Fsd.tick fs ~us:1_000;
  check bool "monitor sampled" true (Monitor.total mon > 0);
  let s =
    match Monitor.last_sample mon with
    | Some s -> s
    | None -> Alcotest.fail "no sample retained"
  in
  let busy1 = List.assoc "device.busy_us" s.Monitor.gauges in
  check bool
    (Printf.sprintf "device busy delta (%d us) overran the interval (%d us)"
       (busy1 - busy0) s.Monitor.dt_us)
    true
    (busy1 - busy0 > s.Monitor.dt_us);
  check close "sat.device_busy clamps to 1.0" 1.0
    (List.assoc "sat.device_busy" s.Monitor.derived)

let test_monitor_enable () =
  let _device, fs = small_fs () in
  check bool "off by default" true (Fsd.monitor fs = None);
  let m = Fsd.enable_monitor ~interval_us:50_000 fs in
  check int "interval override taken" 50_000 (Monitor.interval_us m);
  Fsd.tick fs ~us:200_000;
  check bool "demon path polls the monitor" true (Monitor.total m > 0)

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                             *)

let test_open_loop_generator () =
  let spec = { C.default_open with C.ol_ops = 200 } in
  let a = C.open_loop spec ~clients:5 in
  let b = C.open_loop spec ~clients:5 in
  check bool "same spec, same scripts" true (a = b);
  let total_ops =
    Array.fold_left
      (fun n script ->
        n
        + List.length
            (List.filter (function C.Op _ -> true | _ -> false) script))
      0 a
  in
  check int "every arrival lands on some client" 200 total_ops;
  Array.iter
    (fun script ->
      (* arrival deadlines are monotone within a session *)
      let ats =
        List.filter_map (function C.At t -> Some t | _ -> None) script
      in
      check bool "At deadlines monotone nondecreasing" true
        (List.for_all2 ( <= ) ats (List.tl ats @ [ max_int ]));
      List.iter
        (function
          | C.Op (C.Create { bytes; _ }) ->
            check bool "bounded-Pareto sizes stay in range" true
              (bytes >= spec.C.ol_bytes_min && bytes <= spec.C.ol_bytes_max)
          | _ -> ())
        script)
    a;
  (* a different seed reshuffles the traffic *)
  check bool "seed changes the stream" true
    (C.open_loop { spec with C.ol_seed = 2 } ~clients:5 <> a);
  (* a rate that is not finite and positive would put every arrival at
     time 0 (1/inf = 0, and nan passes a [<= 0] test) *)
  List.iter
    (fun rate ->
      check bool
        (Printf.sprintf "rate %g refused" rate)
        true
        (match C.open_loop { spec with C.ol_rate_per_s = rate } ~clients:5 with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0.; -1.; Float.nan; Float.infinity ]

let test_open_loop_replays_cleanly () =
  let _device, fs = small_fs () in
  let scripts =
    C.open_loop
      { C.default_open with C.ol_ops = 60; ol_rate_per_s = 25.0 }
      ~clients:3
  in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  check int "no client errors" 0 r.S.total_errors;
  check int "no aborted sessions" 0 r.S.total_aborted;
  check int "every arrival executed" 60 r.S.total_ops

let suite =
  [
    ("hand-computed interval deltas", `Quick, test_hand_computed_intervals);
    ("sampling cadence", `Quick, test_cadence);
    ("sliding-window percentiles", `Quick, test_window_percentiles);
    ("ring eviction", `Quick, test_ring_eviction);
    ("timeline determinism end-to-end", `Quick, test_timeline_determinism);
    ("sampling performs zero device I/O", `Quick, test_sampling_is_io_free);
    ("sat.device_busy clamps at 1.0", `Quick, test_device_busy_clamped);
    ("enable attaches a polled monitor", `Quick, test_monitor_enable);
    ("open-loop generator", `Quick, test_open_loop_generator);
    ("open-loop replays cleanly", `Quick, test_open_loop_replays_cleanly);
  ]
