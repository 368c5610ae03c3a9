(* BENCH_OBS.json: Tables 2, 3/4 and 5 analogues replayed from the event
   trace rather than from bespoke counters — the trace-driven twin of
   bench_tables.ml, emitting machine-readable JSON. *)

open Cedar_disk
open Cedar_fsbase
module Obs = Cedar_obs
module Script = Cedar_workload.Obs_script

let run ?(out = "BENCH_OBS.json") () =
  (* Tables 3/4 + 2: the fixed scripted workload, then the paper's bulk
     pattern (100 x 512 B), both traced on a fresh FSD volume. *)
  let device, fs = Setup.fsd_volume () in
  let ops = Cedar_fsd.Fsd.ops fs in
  Script.warmup ops;
  let tr = Device.trace device in
  Obs.Trace.enable ~capacity:(1 lsl 18) tr;
  Script.scripted ops;
  Script.paper_bulk ops;
  Obs.Trace.disable tr;
  let entries = Obs.Trace.to_list tr in
  let per_op = Obs.Tables.per_op entries in
  let log = Obs.Tables.log_activity entries in
  (* The registry as the traced workload left it: the crash reboot below
     re-registers every fsd.* and log.* instrument from zero. *)
  let metrics = Obs.Metrics.to_json (Device.metrics device) in
  let sector_bytes = (Device.geometry device).Geometry.sector_bytes in
  (* Table 5: leave uncommitted work pending, crash (no shutdown), and
     boot with tracing on so the recovery phases land in the trace. *)
  for i = 0 to 49 do
    ignore
      (ops.Fs_ops.create
         ~name:(Printf.sprintf "pending/f%03d" i)
         ~data:(Bytes.make 700 'r')
        : Fs_ops.info)
  done;
  Obs.Trace.clear tr;
  Obs.Trace.enable tr;
  let _, report = Cedar_fsd.Fsd.boot device in
  Obs.Trace.disable tr;
  let phases = Obs.Tables.recovery_phases (Obs.Trace.to_list tr) in
  let json =
    Obs.Jsonb.Obj
      [
        ("bench", Obs.Jsonb.Str "obs-json");
        ( "workload",
          Obs.Jsonb.Obj
            [
              ("scripted_files", Obs.Jsonb.Int Script.n);
              ("scripted_bytes_each", Obs.Jsonb.Int Script.bytes_each);
              ("bulk_files", Obs.Jsonb.Int 100);
              ("bulk_bytes_each", Obs.Jsonb.Int 512);
            ] );
        ("per_op", Obs.Tables.per_op_json per_op);
        ("log", Obs.Tables.log_json ~sector_bytes log);
        ( "recovery",
          Obs.Jsonb.Obj
            [
              ("phases", Obs.Tables.recovery_json phases);
              ( "replayed_records",
                Obs.Jsonb.Int report.Cedar_fsd.Fsd.replayed_records );
              ( "replayed_pages",
                Obs.Jsonb.Int report.Cedar_fsd.Fsd.replayed_pages );
              ("total_us", Obs.Jsonb.Int report.Cedar_fsd.Fsd.total_us);
            ] );
        ("metrics", metrics);
        ("iostats", Iostats.to_json (Device.stats device));
      ]
  in
  let oc = open_out out in
  output_string oc (Obs.Jsonb.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d per-op rows, %d recovery phases, %d log records)\n"
    out (List.length per_op) (List.length phases) log.Obs.Tables.records
