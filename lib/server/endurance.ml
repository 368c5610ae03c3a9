(* Log-wrap endurance: drive the churn workload through the concurrent
   server until the log has wrapped several times, then prove the
   volume still tells the truth.

   The run is self-verifying in three stages:

   1. the serve itself must be clean — no client errors, no admission
      drops, no aborted sessions — or the oracle is ambiguous;
   2. the live volume must match the version-aware oracle fold of every
      client's full mutation list (content, existence and version depth
      for every touched name);
   3. a clean shutdown followed by a reboot must replay zero records,
      reproduce the namespace digest byte-for-byte, and still match the
      oracle — home-written state and the log must agree about every
      page after any number of wraps.

   Everything is deterministic (the only clock is simulated, the only
   randomness the churn spec's seed), so [report_json] is byte-identical
   across same-spec runs — which is itself one of the endurance
   guarantees the wrap test suite pins. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
open Cedar_workload
module Metrics = Cedar_obs.Metrics
module Trace = Cedar_obs.Trace
module Jsonb = Cedar_obs.Jsonb

type cfg = { clients : int; spec : Concurrent.churn_spec }

let default_cfg = { clients = 2; spec = Concurrent.default_churn }

type result = {
  e_report : Server.report;
  e_third_entries : int;  (** thirds entered — /3 for full log wraps *)
  e_log_records : int;
  e_home_write_bursts : int;
  e_reclaim_stalls : int;
  e_fnt_home_writes : int;
  e_violations : string list;  (** live-volume oracle mismatches *)
  e_replayed_after_shutdown : int;  (** must be 0 *)
  e_digest_match : bool;  (** reboot reproduced the namespace *)
  e_violations_after_reboot : string list;
}

let clean r =
  r.e_violations = [] && r.e_violations_after_reboot = []
  && r.e_replayed_after_shutdown = 0 && r.e_digest_match

let metric fs name =
  Option.value (Metrics.read (Fsd.metrics fs) name) ~default:0

let run ?(geom = Geometry.small_test) cfg =
  if cfg.clients < 1 then invalid_arg "Endurance.run: clients < 1";
  let params = Params.for_geometry geom in
  if cfg.spec.Concurrent.churn_keep <> params.Params.default_keep then
    invalid_arg "Endurance.run: churn_keep must match the volume's default_keep";
  let keep = params.Params.default_keep in
  let scripts = Concurrent.churn_scripts cfg.spec ~clients:cfg.clients in
  let muts = Array.map Oracle.muts_of_script scripts in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device params;
  let fs, _ = Fsd.boot device in
  let report = Server.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if report.Server.total_errors > 0 then
    add (Printf.sprintf "%d client error(s)" report.Server.total_errors);
  if report.Server.total_dropped > 0 then
    add (Printf.sprintf "%d dropped step(s)" report.Server.total_dropped);
  if report.Server.total_aborted > 0 then
    add (Printf.sprintf "%d aborted session(s)" report.Server.total_aborted);
  let check_oracle fs =
    List.concat
      (Array.to_list
         (Array.map
            (fun muts ->
              let names = Oracle.mut_names muts in
              let state = Oracle.state_after ~keep muts (List.length muts) in
              Oracle.diff fs state names)
            muts))
  in
  List.iter add (check_oracle fs);
  (match Fsd.check fs with
  | Ok () -> ()
  | Error m -> add ("structural check failed: " ^ m));
  let stats = Fsd.log_stats fs in
  let third_entries = stats.Log.third_entries in
  let log_records = stats.Log.records in
  let bursts = metric fs "fsd.home_write_bursts" in
  let stalls = metric fs "fsd.reclaim_stalls" in
  let fnt_homes = Fsd.fnt_home_writes fs in
  let digest = Oracle.volume_digest fs in
  Fsd.shutdown fs;
  let fs2, br = Fsd.boot device in
  let digest_match = Oracle.volume_digest fs2 = digest in
  let after = check_oracle fs2 in
  let after =
    match Fsd.check fs2 with
    | Ok () -> after
    | Error m -> ("structural check failed after reboot: " ^ m) :: after
  in
  Fsd.shutdown fs2;
  {
    e_report = report;
    e_third_entries = third_entries;
    e_log_records = log_records;
    e_home_write_bursts = bursts;
    e_reclaim_stalls = stalls;
    e_fnt_home_writes = fnt_homes;
    e_violations = List.rev !violations;
    e_replayed_after_shutdown = br.Fsd.replayed_records;
    e_digest_match = digest_match;
    e_violations_after_reboot = after;
  }

let report_json r =
  Jsonb.Obj
    [
      ("server", Server.report_json r.e_report);
      ("third_entries", Jsonb.Int r.e_third_entries);
      ("log_records", Jsonb.Int r.e_log_records);
      ("home_write_bursts", Jsonb.Int r.e_home_write_bursts);
      ("reclaim_stalls", Jsonb.Int r.e_reclaim_stalls);
      ("fnt_home_writes", Jsonb.Int r.e_fnt_home_writes);
      ("violations", Jsonb.Arr (List.map (fun v -> Jsonb.Str v) r.e_violations));
      ("replayed_after_shutdown", Jsonb.Int r.e_replayed_after_shutdown);
      ("digest_match", Jsonb.Bool r.e_digest_match);
      ( "violations_after_reboot",
        Jsonb.Arr (List.map (fun v -> Jsonb.Str v) r.e_violations_after_reboot) );
      ("clean", Jsonb.Bool (clean r));
    ]

let pp ppf r =
  Format.fprintf ppf "churn endurance: %d client(s), %d ops acked@."
    r.e_report.Server.clients r.e_report.Server.mutations_acked;
  Format.fprintf ppf
    "  log: %d records, %d third entries (%.1f full wraps)@." r.e_log_records
    r.e_third_entries
    (float_of_int r.e_third_entries /. 3.0);
  Format.fprintf ppf
    "  home writes: %d pages (%d background bursts, %d reclaim stalls)@."
    r.e_fnt_home_writes r.e_home_write_bursts r.e_reclaim_stalls;
  Format.fprintf ppf "  reboot: replayed %d record(s), namespace %s@."
    r.e_replayed_after_shutdown
    (if r.e_digest_match then "identical" else "CHANGED");
  match r.e_violations @ r.e_violations_after_reboot with
  | [] -> Format.fprintf ppf "  violations: none@."
  | vs ->
    Format.fprintf ppf "  violations: %d@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "    %s@." v) vs
