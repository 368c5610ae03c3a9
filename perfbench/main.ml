(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: untraced reps of the
   workload, each on freshly set-up volumes, as many as take about S host
   CPU seconds (host-clock metrics: lower quartile over reps, stretch by
   stretch, each rep scaled to the reference machine by Calib), then one
   traced rep whose Critpath fold gives the simulated-clock latencies.
   --trace 1 measures the per-layer ledger instead (see Ledger).

   Every metric is printed by name with its unit as a "#" line; the last
   line of standard output is one JSON object with the metrics
   BENCHMARK.json declares for the mode. Any failed correctness check
   makes the result incorrect and the exit code 1. *)

module W = Workloads
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module V = Cedar_volumes.Volume_set
module Crit = Cedar_obs.Critpath
module J = Cedar_obs.Jsonb

let min_reps = 3

(* A run stops adding reps after this many times [--seconds] of wall
   time, so that a machine far slower than the reference one still ends
   each run within its time limit. *)
let max_wall_factor = 2.

(* Set-up is sampled once before every rep and then again until there
   are at least this many samples taking at least this many host seconds
   in all. Like the other host metrics, set-up time is a lower quartile:
   the machine runs the same set-up up to twice as slowly for stretches
   of a second or two, and samples spread over the whole run nearly
   always catch quiet stretches. *)
let min_setups = 7
let min_setup_s = 1.0

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* ------------------------------------------------------------------ *)
(* Shared bookkeeping.                                                 *)

let failures = ref []
let fail m = failures := m :: !failures
let attempted = ref 0

let ms_of_us x = float_of_int x /. 1e3
let fmedian xs = Host.median xs
let p99 xs = Host.percentile 0.99 xs

let ops_of (r : W.rep) (tr : W.traced) =
  match r.W.reports with
  | [ rep ] -> rep.S.total_ops
  | _ ->
    List.fold_left
      (fun n (f : Crit.t) -> n + List.length (List.filter (fun o -> not o.Crit.dropped) f.Crit.ops))
      0 tr.W.folds

let account (r : W.rep) ~ops =
  attempted := !attempted + ops;
  List.iter fail r.W.failures

let check_traced (tr : W.traced) =
  if tr.W.trace_dropped > 0 then fail (Printf.sprintf "trace ring overflowed by %d entries" tr.W.trace_dropped);
  List.iter
    (fun (f : Crit.t) ->
      if f.Crit.orphans > 0 then fail (Printf.sprintf "critpath: %d orphans" f.Crit.orphans);
      if not f.Crit.all_conserved then fail "critpath: a phase vector is not conserved")
    tr.W.folds

let witness (r : W.rep) =
  r.W.witness
  ^ String.concat "," (List.map (fun (x : W.restart) -> string_of_int x.W.total_us) r.W.restarts)

(* Reference samples taken before each set-up; set-up time is scaled by
   their median. *)
let setup_refs = Calib.sampler ()

(* Each set-up starts from a compacted heap, so neither its time nor the
   peak heap depends on how much garbage earlier reps left behind. *)
let setup w ~seed =
  Gc.compact ();
  Calib.take setup_refs;
  Host.time (fun () -> Host.span "setup" (fun () -> W.setup w ~seed))

let rep_with_trace w ~seed ?on_crashed () =
  let p, setup_s = setup w ~seed in
  let r = Host.span "rep.traced" (fun () -> W.run_rep ?on_crashed w p ~traced:true) in
  (p, setup_s, r, Option.get r.W.traced)

let rep_untraced w ~seed =
  let p, setup_s = setup w ~seed in
  let r = Host.span "rep.untraced" (fun () -> W.run_rep w p ~traced:false) in
  (p, setup_s, r)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0).                                     *)

(* Every untraced rep runs the same inputs, so the i-th serve window and
   the i-th boot are the same work in every rep. Host metrics take, for
   each, the lower quartile of its times over the reps, after scaling
   each rep's times by the machine speed its reference samples measured
   (Calib). The scaling takes out slowdowns that last longer than a rep;
   the quartile outvotes a stretch slowed by other work on the machine
   with the same stretch in other reps, and, unlike the fastest time, is
   not set by the one rep whose scaling erred most. *)
let lower_quartile = Host.quantile 0.25

let per_index_lower_quartile = function
  | [] -> [||]
  | a :: _ as runs ->
    if List.exists (fun b -> Array.length b <> Array.length a) runs then begin
      fail "reps split their host time into different windows";
      [||]
    end
    else Array.init (Array.length a) (fun i -> lower_quartile (List.map (fun b -> b.(i)) runs))

let end_to_end w ~seed ~seconds =
  let reps = ref [] and setups = ref [] and timed = ref 0. in
  let peak_heap_mb = ref 0. in
  let n_reps = max min_reps (int_of_float (Float.round (seconds /. W.nominal_rep_s w))) in
  let t0 = Host.now_ns () in
  let wall_s () = Host.ns_between t0 (Host.now_ns ()) /. 1e9 in
  while
    List.length !reps < min_reps
    || (List.length !reps < n_reps && wall_s () < max_wall_factor *. seconds)
  do
    let _, setup_s, r = rep_untraced w ~seed in
    (* The peak of one set-up plus rep: later reps only add garbage whose
       collection timing, not the workload, would set the peak. *)
    if !reps = [] then peak_heap_mb := Host.peak_heap_mb ();
    setups := setup_s :: !setups;
    reps := r :: !reps;
    timed := !timed +. r.W.timed_host_s
  done;
  let reps = List.rev !reps in
  while List.length !setups < min_setups || List.fold_left ( +. ) 0. !setups < min_setup_s do
    setups := snd (setup w ~seed) :: !setups
  done;
  let peak_heap_mb = !peak_heap_mb in
  let p, setup_s, traced_rep, tr = rep_with_trace w ~seed () in
  setups := setup_s :: !setups;
  check_traced tr;
  let ops = ops_of traced_rep tr in
  List.iter
    (fun r ->
      account r ~ops;
      if witness r <> witness traced_rep then
        fail "traced and untraced reps disagree (server report or restart times)")
    (traced_rep :: reps);
  let samples = W.samples_of tr in
  let lat pred = List.filter_map (fun s -> if pred s then Some (float_of_int s.W.latency_us /. 1e3) else None) samples in
  let all_ms = lat (fun _ -> true) in
  let create_ms = lat (fun s -> s.W.kind = "create") in
  let read_ms = lat (fun s -> s.W.kind = "read" || s.W.kind = "read_page") in
  let wait_ms =
    List.filter_map (fun s -> Option.map (fun us -> float_of_int us /. 1e3) s.W.commit_wait_us) samples
  in
  let restart_sim = List.map (fun (x : W.restart) -> ms_of_us x.W.total_us) traced_rep.W.restarts in
  let dropped = List.fold_left (fun n r -> n + r.S.total_dropped) 0 traced_rep.W.reports in
  let errors = List.fold_left (fun n r -> n + r.S.total_errors) 0 traced_rep.W.reports in
  let aborted = List.fold_left (fun n r -> n + r.S.total_aborted) 0 traced_rep.W.reports in
  let late, arrivals = W.late_arrivals tr in
  let sim_s = float_of_int traced_rep.W.sim_us /. 1e6 in
  let scales = List.map (fun r -> Calib.scale r.W.ref_samples_s) reps in
  let host_rates = List.map2 (fun r f -> float_of_int ops /. (r.W.timed_host_s *. f)) reps scales in
  let windows = per_index_lower_quartile (List.map2 (fun r f -> Array.map (( *. ) f) r.W.windows_s) reps scales) in
  let boots_of r f =
    List.map (( *. ) f) (List.map (fun (x : W.restart) -> x.W.host_s) r.W.restarts @ r.W.copy_boots_s)
  in
  let boots = per_index_lower_quartile (List.map2 (fun r f -> Array.of_list (boots_of r f)) reps scales) in
  let restarts = List.length traced_rep.W.restarts in
  let timed_s = Array.fold_left ( +. ) 0. windows +. Array.fold_left ( +. ) 0. (Array.sub boots 0 restarts) in
  Printf.printf "# workload %s: %s loop, %d clients, %d volume(s)%s, seed %d\n" w.W.name w.W.loop
    w.W.clients w.W.volumes
    (match w.W.rate with Some r -> Printf.sprintf ", %.1f ops/s offered" r | None -> "")
    seed;
  Printf.printf "# reps: %d untraced (timed %.2f host s) + 1 traced; ops per rep %d; crashes fired %d\n"
    (List.length reps) !timed ops traced_rep.W.crashes_fired;
  Printf.printf "# machine speed per rep (nominal / median reference sample): %s; set-ups %.3f\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") scales))
    (Calib.scale setup_refs.Calib.samples);
  Printf.printf "# host ops/s per rep, unscaled: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (float_of_int ops /. r.W.timed_host_s)) reps));
  Printf.printf "# host ops/s per rep: %s; set-up s: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") host_rates))
    (String.concat " " (List.map (Printf.sprintf "%.4f") !setups));
  Printf.printf "# samples: ops %d, creates %d, reads %d, commit waits %d, restarts %d (host %d)\n"
    (List.length all_ms) (List.length create_ms) (List.length read_ms) (List.length wait_ms)
    (List.length restart_sim) (Array.length boots);
  Printf.printf "# lower quartile of %d reps: %d serve windows + %d boots, %.3f host s\n" (List.length reps)
    (Array.length windows) restarts timed_s;
  let info = [
    m "op_p50_ms_n" "count" (float_of_int (List.length all_ms));
    m "failed_ops_frac" "ratio"
      (float_of_int (dropped + errors + aborted) /. float_of_int (max 1 ops));
    m "dropped" "count" (float_of_int dropped);
    m "late_arrival_frac" "ratio" (if arrivals = 0 then 0. else float_of_int late /. float_of_int arrivals);
    m "workload.gen_s" "s" p.W.gen_s;
  ] in
  List.iter (fun x -> Printf.printf "#   %-22s %14.4f %s (info)\n" x.name x.value x.unit) info;
  [
    m "host_ops_per_s" "ops/s" (float_of_int ops /. timed_s);
    m "setup_s" "s" (lower_quartile !setups *. Calib.scale setup_refs.Calib.samples);
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "sim_ops_per_s" "ops/s" (float_of_int ops /. sim_s);
    m "op_p50_ms" "ms" (Host.percentile 0.5 all_ms);
    m "op_p99_ms" "ms" (p99 all_ms);
    m "create_p99_ms" "ms" (p99 create_ms);
    m "read_p95_ms" "ms" (Host.percentile 0.95 read_ms);
    m "commit_wait_p99_ms" "ms" (p99 wait_ms);
    m "restart_p50_ms" "ms" (Host.percentile 0.5 restart_sim);
    m "restart_max_ms" "ms" (List.fold_left max 0. restart_sim);
    m "restart_host_ms" "ms" (fmedian (Array.to_list (Array.map (fun s -> s *. 1e3) boots)));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1).                                      *)

let span_ms name =
  List.filter_map (fun s -> if s.Host.name = name then Some (Host.span_ms s) else None) !Host.spans_rev

let per_layer w ~seed =
  let _, _, plain = rep_untraced w ~seed in
  let recovered = ref (0, 0.) in
  let on_crashed dev layout = recovered := Ledger.recover_seam dev layout in
  let p, _, traced_rep, tr = rep_with_trace w ~seed ~on_crashed () in
  check_traced tr;
  let ops = ops_of traced_rep tr in
  account plain ~ops;
  account traced_rep ~ops;
  if witness plain <> witness traced_rep then
    fail "traced and untraced reps disagree (server report or restart times)";
  let vs = traced_rep.W.vstats in
  let fops = float_of_int (max 1 ops) in
  let records = List.concat_map (fun (f : Crit.t) -> f.Crit.ops) tr.W.folds in
  let creates = List.filter (fun r -> r.Crit.op = "create" && not r.Crit.dropped) records in
  let phase f = p99 (List.map (fun r -> float_of_int (f r) /. 1e3) creates) in
  let mutations = List.length (List.filter C.mutates tr.W.exec) in
  let user_bytes =
    List.fold_left (fun n -> function C.Create { bytes; _ } -> n + bytes | _ -> n) 0 tr.W.exec
  in
  let reads =
    List.length (List.filter (function C.Read _ | C.Read_page _ -> true | _ -> false) tr.W.exec)
  in
  let forces = W.total_forces vs in
  let ops_per_force = float_of_int mutations /. float_of_int (max 1 forces) in
  (* FSD replay on fresh volumes of the same shape. *)
  let fresh = Host.span "setup.replay" (fun () -> W.setup w ~seed) in
  let replay = Host.span "replay" (fun () -> Ledger.replay fresh.W.vset tr.W.exec ~forces:vs.W.forces) in
  if replay.Ledger.errors > 0 then fail (Printf.sprintf "fsd replay: %d errors" replay.Ledger.errors);
  let kind_us k q = let xs = span_ms ("fsd." ^ k) in if xs = [] then 0. else Host.percentile q xs *. 1e3 in
  let force_us = fmedian (span_ms "fsd.force") *. 1e3 in
  let serve_s = plain.W.serve_host_s in
  let self_frac = (serve_s -. replay.Ledger.total_s) /. serve_s in
  (* Device command stream. *)
  let geom = Cedar_disk.Device.geometry (V.device p.W.vset 0) in
  let params = W.params_of w in
  let cmd_us = Host.span "device.replay" (fun () -> Ledger.device_replay geom params tr.W.dev_cmds) in
  (* Seams on the final name set and layout. *)
  let entries = Ledger.final_entries p.W.vset in
  let layout = Cedar_fsd.Fsd.layout (V.vol p.W.vset 0) in
  let ins_ns, ins_words, find_ns, find_words = Host.span "seam.btree" (fun () -> Ledger.btree_seams layout entries) in
  let codec_ns, codec_words = Host.span "seam.entry" (fun () -> Ledger.codec_seam entries) in
  let commit_us, find_run_us = Host.span "seam.vam" (fun () -> Ledger.vam_seams layout entries) in
  let sample = match List.find_opt (function C.Create _ -> true | _ -> false) tr.W.exec with
    | Some (C.Create { bytes; fill; _ }) -> C.content ~fill bytes
    | _ -> Bytes.make 512 'x'
  in
  let crc_ns, crc_words = Host.span "seam.crc32" (fun () -> Ledger.crc_seam sample) in
  let largest =
    List.fold_left
      (fun acc (_, v) -> match v with Cedar_obs.Metrics.Dist { n; _ } -> max acc n | _ -> acc)
      0
      (Cedar_obs.Metrics.snapshot (V.metrics p.W.vset))
  in
  let largest = max largest (List.length records) in
  let add_ns, add_words, pct_us = Host.span "seam.stats" (fun () -> Ledger.stats_seam ~largest) in
  let emit_on_ns, emit_on_words = Host.span "seam.trace" (fun () -> Ledger.trace_seam ~on:true) in
  let emit_off_ns, emit_off_words = Host.span "seam.trace" (fun () -> Ledger.trace_seam ~on:false) in
  let fold_ms = Ledger.fold_seam p.W.vset in
  let replayed, recover_ms = !recovered in
  let rs = traced_rep.W.restarts in
  let acked = List.concat_map (fun r -> List.map (fun v -> float_of_int v.S.vr_acked) r.S.per_volume) traced_rep.W.reports in
  let spread = match acked with [] -> 1. | _ -> List.fold_left max 0. acked /. max 1. (List.fold_left min infinity acked) in
  let vols = float_of_int (V.count p.W.vset) in
  let sim_us = float_of_int traced_rep.W.sim_us in
  let vam_share = commit_us *. float_of_int forces /. 1e6 /. serve_s in
  let dev_share = cmd_us *. float_of_int (List.length tr.W.dev_cmds) /. 1e6 /. serve_s in
  let fsd_force_frac = replay.Ledger.force_s /. serve_s in
  let fsd_ops_frac = (replay.Ledger.total_s -. replay.Ledger.force_s) /. serve_s in
  Printf.printf "# workload %s, seed %d: serve %.3f host s untraced, %.3f traced; replay %.3f s (%d forces)\n"
    w.W.name seed serve_s traced_rep.W.serve_host_s replay.Ledger.total_s replay.Ledger.forces;
  Printf.printf "# serve host-time ledger: fsd ops %.1f%% (device commands ~%.1f%%), fsd force %.1f%% (vam.commit_shadow ~%.1f%%), unattributed (server scheduler and the rest) %.1f%%\n"
    (100. *. fsd_ops_frac) (100. *. dev_share) (100. *. fsd_force_frac) (100. *. vam_share) (100. *. self_frac);
  [
    m "server.host_s" "s" serve_s;
    m "server.self_host_frac" "ratio" self_frac;
    m "server.ops_per_force" "ratio" ops_per_force;
    m "server.batch_mean" "ratio"
      (match traced_rep.W.reports with r :: _ -> r.S.batch_mean | [] -> ops_per_force);
    m "server.rejects" "count" (float_of_int vs.W.rejects);
    m "server.retries" "count" (float_of_int vs.W.retries);
    m "server.dropped" "count" (float_of_int vs.W.dropped);
    m "phase.queue_p99_ms" "ms" (phase (fun r -> r.Crit.queue_us));
    m "phase.admission_p99_ms" "ms" (phase (fun r -> r.Crit.admission_us));
    m "phase.execute_p99_ms" "ms" (phase (fun r -> r.Crit.execute_us));
    m "phase.seek_p99_ms" "ms" (phase (fun r -> r.Crit.seek_us));
    m "phase.transfer_p99_ms" "ms" (phase (fun r -> r.Crit.transfer_us));
    m "phase.append_p99_ms" "ms" (phase (fun r -> r.Crit.append_us));
    m "phase.parked_p99_ms" "ms" (phase (fun r -> r.Crit.parked_us));
    m "fsd.create.host_us_p50" "us" (kind_us "create" 0.5);
    m "fsd.create.host_us_p99" "us" (kind_us "create" 0.99);
    m "fsd.read.host_us_p50" "us" (kind_us "read" 0.5);
    m "fsd.read.host_us_p99" "us" (kind_us "read" 0.99);
    m "fsd.delete.host_us_p50" "us" (kind_us "delete" 0.5);
    m "fsd.delete.host_us_p99" "us" (kind_us "delete" 0.99);
    m "fsd.force.host_us" "us" force_us;
    m "fsd.force.host_frac" "ratio" (replay.Ledger.force_s /. replay.Ledger.total_s);
    m "fsd.leader_piggybacks_per_read" "ratio" (float_of_int vs.W.piggybacks /. float_of_int (max 1 reads));
    m "fsd.home_write_bursts" "count" (float_of_int vs.W.home_write_bursts);
    m "fsd.reclaim_stalls" "count" (float_of_int vs.W.reclaim_stalls);
    m "log.sectors_per_mutation" "ratio" (float_of_int vs.W.log_sectors /. float_of_int (max 1 mutations));
    m "log.third_entries" "count" (float_of_int vs.W.third_entries);
    m "log.replayed_records" "count" (fmedian (List.map (fun r -> float_of_int r.W.replayed_records) rs));
    m "log.replay_sim_ms" "ms" (fmedian (List.map (fun r -> ms_of_us r.W.log_replay_us) rs));
    m "log.recover.host_ms" "ms" recover_ms;
    m "log.recover.records" "count" (float_of_int replayed);
    m "fnt.home_writes_per_force" "ratio" (float_of_int vs.W.fnt_home_writes /. float_of_int (max 1 forces));
    m "fnt.dirty_page_age_p99_ms" "ms" (if vs.W.dirty_age_us = [] then 0. else p99 vs.W.dirty_age_us /. 1e3);
    m "fnt.btree.find.host_ns" "ns" find_ns;
    m "fnt.btree.find.words" "words" find_words;
    m "fnt.btree.insert.host_ns" "ns" ins_ns;
    m "fnt.btree.insert.words" "words" ins_words;
    m "fnt.fold.host_ms" "ms" fold_ms;
    m "fnt.entries" "count" (float_of_int (Array.length entries));
    m "vam.commit_shadow.host_us" "us" commit_us;
    m "vam.find_free_run.host_us" "us" find_run_us;
    m "vam.rebuild_sim_ms" "ms" (fmedian (List.map (fun r -> ms_of_us r.W.vam_us) rs));
    m "device.busy_frac" "ratio" (float_of_int vs.W.busy_us /. (sim_us *. vols));
    m "device.seeks_per_op" "ratio" (float_of_int vs.W.seeks /. fops);
    m "device.seek_ms_per_op" "ms" (float_of_int vs.W.seek_us /. 1e3 /. fops);
    m "device.write_amp" "ratio" (float_of_int (vs.W.sectors_written * 512) /. float_of_int (max 1 user_bytes));
    m "device.cmd.host_us" "us" cmd_us;
    m "obs.trace_overhead_frac" "ratio" ((traced_rep.W.serve_host_s /. serve_s) -. 1.);
    m "obs.retained_samples" "count" (float_of_int traced_rep.W.retained);
    m "obs.percentile.host_us" "us" pct_us;
    m "obs.minor_words_per_op" "words" (plain.W.minor_words /. fops);
    m "obs.stats_add.host_ns" "ns" add_ns;
    m "obs.stats_add.words" "words" add_words;
    m "obs.trace_emit_on.host_ns" "ns" emit_on_ns;
    m "obs.trace_emit_on.words" "words" emit_on_words;
    m "obs.trace_emit_off.host_ns" "ns" emit_off_ns;
    m "obs.trace_emit_off.words" "words" emit_off_words;
    m "crc32.sector.host_ns" "ns" crc_ns;
    m "crc32.sector.words" "words" crc_words;
    m "entry.codec.host_ns" "ns" codec_ns;
    m "entry.codec.words" "words" codec_words;
    m "workload.gen_s" "s" p.W.gen_s;
    m "volumes.acked_spread" "ratio" spread;
    m "ledger.fsd_ops_frac" "ratio" fsd_ops_frac;
    m "ledger.fsd_force_frac" "ratio" fsd_force_frac;
    m "ledger.vam_commit_shadow_frac" "ratio" vam_share;
    m "ledger.device_cmd_frac" "ratio" dev_share;
  ]

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

(* The metric names and units BENCHMARK.json declares for this mode;
   [None] when the file is absent. *)
let declared ~trace =
  let key = if trace then "per_layer" else "end_to_end" in
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    let ic = open_in_bin "BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string s with
    | Ok (J.Obj fields) -> (
      match List.assoc_opt key fields with
      | Some (J.Arr ms) ->
        Some
          (List.filter_map
             (function
               | J.Obj f -> (
                 match (List.assoc_opt "name" f, List.assoc_opt "unit" f) with
                 | Some (J.Str n), Some (J.Str u) -> Some (n, u)
                 | _ -> None)
               | _ -> None)
             ms)
      | _ -> None)
    | _ -> None

let emit ~trace metrics =
  List.iter (fun x -> Printf.printf "#   %-34s %16.6f %s\n" x.name x.value x.unit) metrics;
  let chosen =
    match declared ~trace with
    | None -> metrics
    | Some names ->
      List.filter_map
        (fun (n, u) ->
          match List.find_opt (fun x -> x.name = n) metrics with
          | Some x ->
            if x.unit <> u then fail (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" n x.unit u);
            Some x
          | None ->
            fail (Printf.sprintf "metric %s declared in BENCHMARK.json is not measured" n);
            None)
        names
  in
  List.iter (fun x -> if not (Float.is_finite x.value) then fail ("metric " ^ x.name ^ " is not finite")) chosen;
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "# FAILED: %s\n" f) (List.rev !failures);
  Host.print_spans ();
  (* Rendered by hand: values keep all their digits. *)
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 !attempted) failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit)
          chosen));
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed phases to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match W.find !workload with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    exit 2
  | Some w ->
    let seed = max 1 !seed in
    if !trace = 1 then emit ~trace:true (Host.span "run" (fun () -> per_layer w ~seed))
    else emit ~trace:false (Host.span "run" (fun () -> end_to_end w ~seed ~seconds:!seconds))
