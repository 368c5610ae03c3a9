(* bench obs-json: Tables 2 and 3/4 analogues replayed from the event
   trace rather than from bespoke counters — the trace-driven twin of
   bench_tables.ml, as a machine-readable snapshot. Its check is the
   conservation [Tables.per_op] promises: moving each force's log I/O
   to the ops it carried changes no column total. *)

open Cedar_disk
open Cedar_fsbase
module Obs = Cedar_obs
module Script = Cedar_workload.Obs_script

(* Raw and amortised totals of I/Os, writes and sectors written agree. *)
let amortised_ios_conserved per_op =
  let module T = Obs.Tables in
  let conserved raw amortised =
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 per_op in
    abs_float (sum (fun r -> float_of_int (raw r)) -. sum amortised) < 1e-6
  in
  conserved (fun r -> r.T.reads + r.T.writes) (fun r -> r.T.amortised_ios)
  && conserved (fun r -> r.T.writes) (fun r -> r.T.amortised_writes)
  && conserved (fun r -> r.T.sectors_written) (fun r -> r.T.amortised_sectors_written)

let build () =
  (* Tables 3/4 + 2: the fixed scripted workload, then a bulk pass of
     the paper's Tables 3/4 shape (100 x 512 B; the tables use 700 B),
     both traced on a fresh FSD volume. *)
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
  (* Table 2's crash recovery row: leave uncommitted work pending, crash
     (no shutdown), and boot with tracing on so the recovery phases land
     in the trace. *)
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
      Setup.checks [ ("amortised_ios_conserved", amortised_ios_conserved per_op) ];
      ("per_op", Obs.Tables.per_op_json per_op);
      ("log", Obs.Tables.log_json ~sector_bytes log);
      ( "recovery",
        Obs.Jsonb.Obj
          [
            ("phases", Obs.Tables.recovery_json phases);
            ("replayed_records", Obs.Jsonb.Int report.Cedar_fsd.Fsd.replayed_records);
            ("replayed_pages", Obs.Jsonb.Int report.Cedar_fsd.Fsd.replayed_pages);
            ("total_us", Obs.Jsonb.Int report.Cedar_fsd.Fsd.total_us);
          ] );
      ("metrics", metrics);
      ("iostats", Iostats.to_json (Device.stats device));
    ]
