(* cedar -- a command-line tool over simulated Cedar volumes stored as
   disk-image files.

     cedar mkfs vol.img                  create an FSD volume
     cedar mkfs --fs cfs vol.img         create a CFS volume
     cedar put vol.img name < file       store stdin as a new version
     cedar get vol.img name > file       print the newest version
     cedar ls vol.img [prefix]           list files with properties
     cedar rm vol.img name               delete the newest version
     cedar info vol.img                  volume summary + structural check
     cedar crash vol.img                 mark the volume as not shut down
     cedar recover vol.img               boot (FSD: log replay; CFS: scavenge)
     cedar scavenge vol.img              rebuild metadata from leader pages
     cedar stats vol.img [--json]        per-op I/O + latency, log and group
                                         commit (Tables 2-4, §5.4)
     cedar trace vol.img [--limit N]     dump the event trace of a scripted run
     cedar trace vol.img --chrome out.json   export the span tree for Perfetto
     cedar serve vol.img --clients N     concurrent sessions over group commit
     cedar serve vol.img --watch         live telemetry dashboard while serving
     cedar serve vol.img --open-loop R   Poisson open-loop traffic at R ops/s
     cedar serve --volumes V --clients N sharded multi-volume scale-out run
     cedar churn [--ops N] [--tiny]      wrap the log under churn, self-verify
     cedar faultsweep [--tear MODE]      crash the server at every sector write
     cedar faultsweep --wrap             crash inside the log's wrap window

   Mutating commands shut the file system down cleanly before saving the
   image; [crash] deliberately skips that, so the next boot exercises
   recovery. *)

open Cedar_util
open Cedar_disk

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("cedar: " ^ s); exit 1) fmt

let load_device path =
  if not (Sys.file_exists path) then fail "no such image: %s" path;
  let ic = open_in_bin path in
  match Device.load ~clock:(Simclock.create ()) ic with
  | d ->
    close_in ic;
    d
  | exception Bytebuf.Decode_error reason ->
    close_in ic;
    fail "%s: not a valid disk image: %s" path reason

let save_device device path =
  let oc = open_out_bin path in
  Device.dump device oc;
  close_out oc

type vol = Fsd_vol of Cedar_fsd.Fsd.t | Cfs_vol of Cedar_cfs.Cfs.t

(* Which system formatted this image? Probe the boot-page magic. *)
let detect device =
  match Cedar_fsd.Boot_page.read device with
  | Some bp -> `Fsd bp
  | None -> `Cfs

(* [queue] is the request queue ([Params.disk_sched], [disk_qdepth]) an
   FSD boot gives the device; every other runtime knob is the volume's
   own. *)
let boot_vol ?(queue = (Device.Fifo, 0)) device =
  match detect device with
  | `Fsd bp ->
    let params =
      {
        bp.Cedar_fsd.Boot_page.params with
        Cedar_fsd.Params.disk_sched = fst queue;
        disk_qdepth = snd queue;
      }
    in
    let fs, report =
      match Cedar_fsd.Fsd.try_boot ~params device with
      | `Ok v -> v
      | `Needs_scavenge reason ->
        Printf.eprintf "(metadata damage beyond log replay: %s; scavenging)\n"
          reason;
        let r = Cedar_fsd.Scavenge.run device in
        Printf.eprintf "(scavenge: %s, %.1f s)\n"
          (Format.asprintf "%a" Cedar_fsd.Scavenge.pp_report r)
          (Simclock.s_of_us r.Cedar_fsd.Scavenge.duration_us);
        Cedar_fsd.Fsd.boot ~params device
    in
    if report.Cedar_fsd.Fsd.replayed_records > 0 then
      Printf.eprintf "(recovery replayed %d log records in %.2f s)\n"
        report.Cedar_fsd.Fsd.replayed_records
        (Simclock.s_of_us report.Cedar_fsd.Fsd.log_replay_us);
    Fsd_vol fs
  | `Cfs -> (
    match Cedar_cfs.Cfs.boot device with
    | `Ok fs -> Cfs_vol fs
    | `Needs_scavenge ->
      Printf.eprintf "(volume was not shut down cleanly: scavenging)\n";
      let fs, r = Cedar_cfs.Cfs.scavenge device in
      Printf.eprintf "(scavenge recovered %d files, lost %d, %.1f s)\n"
        r.Cedar_cfs.Cfs.files_recovered r.Cedar_cfs.Cfs.files_lost
        (Simclock.s_of_us r.Cedar_cfs.Cfs.duration_us);
      Cfs_vol fs)

let ops_of = function
  | Fsd_vol fs -> Cedar_fsd.Fsd.ops fs
  | Cfs_vol fs -> Cedar_cfs.Cfs.ops fs

let shutdown_vol = function
  | Fsd_vol fs -> Cedar_fsd.Fsd.shutdown fs
  | Cfs_vol fs -> Cedar_cfs.Cfs.shutdown fs

let guard f =
  try f ()
  with Cedar_fsbase.Fs_error.Fs_error e ->
    fail "%s" (Cedar_fsbase.Fs_error.to_string e)

let with_volume ?(save = true) ?queue path f =
  guard (fun () ->
      let device = load_device path in
      let vol = boot_vol ?queue device in
      let result = f vol in
      if save then begin
        shutdown_vol vol;
        save_device device path
      end;
      result)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let geometry_of = function
  | "t300" -> Geometry.trident_t300
  | "small" -> Geometry.small_test
  | g -> fail "unknown geometry %S (t300|small)" g

let cmd_mkfs path fs_kind geom_name log_vam track_tolerant =
  let geom = geometry_of geom_name in
  let device = Device.create ~clock:(Simclock.create ()) geom in
  (match fs_kind with
  | "fsd" ->
    let p =
      {
        (Cedar_fsd.Params.for_geometry geom) with
        Cedar_fsd.Params.log_vam;
        track_tolerant_log = track_tolerant;
      }
    in
    Cedar_fsd.Fsd.format device p
  | "cfs" ->
    if log_vam || track_tolerant then
      fail "--log-vam/--track-tolerant are FSD extensions";
    Cedar_cfs.Cfs.format device (Cedar_cfs.Cfs_layout.params_for_geometry geom)
  | k -> fail "unknown file system %S (fsd|cfs)" k);
  save_device device path;
  Printf.printf "formatted %s as %s on %s%s%s\n" path fs_kind
    (Format.asprintf "%a" Geometry.pp geom)
    (if log_vam then " +vam-logging" else "")
    (if track_tolerant then " +track-tolerant-log" else "")

let read_stdin () =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf stdin 1
     done
   with End_of_file -> ());
  Buffer.to_bytes buf

let cmd_put path name =
  let data = read_stdin () in
  with_volume path (fun vol ->
      let ops = ops_of vol in
      let info = ops.Cedar_fsbase.Fs_ops.create ~name ~data in
      Printf.printf "%s!%d  %d bytes\n" info.Cedar_fsbase.Fs_ops.name
        info.Cedar_fsbase.Fs_ops.version info.Cedar_fsbase.Fs_ops.byte_size)

let cmd_get path name =
  with_volume ~save:false path (fun vol ->
      let ops = ops_of vol in
      print_bytes (ops.Cedar_fsbase.Fs_ops.read_all ~name))

let cmd_ls path prefix =
  with_volume ~save:false path (fun vol ->
      let ops = ops_of vol in
      List.iter
        (fun i ->
          Printf.printf "%8d  %s!%d\n" i.Cedar_fsbase.Fs_ops.byte_size
            i.Cedar_fsbase.Fs_ops.name i.Cedar_fsbase.Fs_ops.version)
        (ops.Cedar_fsbase.Fs_ops.list ~prefix))

let cmd_rm path name =
  with_volume path (fun vol ->
      let ops = ops_of vol in
      ops.Cedar_fsbase.Fs_ops.delete ~name;
      Printf.printf "deleted newest version of %s\n" name)

let cmd_info path =
  with_volume ~save:false path (fun vol ->
      match vol with
      | Fsd_vol fs ->
        let layout = Cedar_fsd.Fsd.layout fs in
        Printf.printf "FSD volume on %s\n"
          (Format.asprintf "%a" Geometry.pp layout.Cedar_fsd.Layout.geom);
        Printf.printf "layout: %s\n"
          (Format.asprintf "%a" Cedar_fsd.Layout.pp layout);
        Printf.printf "free sectors: %d\n" (Cedar_fsd.Fsd.free_sectors fs);
        Printf.printf "files: %d\n"
          (List.length ((Cedar_fsd.Fsd.ops fs).Cedar_fsbase.Fs_ops.list ~prefix:""));
        (match Cedar_fsd.Fsd.check fs with
        | Ok () -> print_endline "structural check: ok"
        | Error m -> Printf.printf "structural check FAILED: %s\n" m)
      | Cfs_vol fs ->
        Printf.printf "CFS volume\n";
        Printf.printf "free sector hints: %d\n" (Cedar_cfs.Cfs.free_sector_hints fs);
        Printf.printf "files: %d\n"
          (List.length ((Cedar_cfs.Cfs.ops fs).Cedar_fsbase.Fs_ops.list ~prefix:""));
        (match Cedar_cfs.Cfs.check fs with
        | Ok () -> print_endline "structural check: ok"
        | Error m -> Printf.printf "structural check FAILED: %s\n" m))

(* Simulate an operator hitting the big red switch: boot the volume and
   save it again WITHOUT a clean shutdown. *)
let cmd_crash path =
  guard @@ fun () ->
  let device = load_device path in
  let vol = boot_vol device in
  let ops = ops_of vol in
  (* a little committed work, then an uncommitted create to make the
     next recovery interesting *)
  ignore
    (ops.Cedar_fsbase.Fs_ops.create ~name:"pre-crash" ~data:(Bytes.make 640 '\000'));
  ops.Cedar_fsbase.Fs_ops.force ();
  ignore
    (ops.Cedar_fsbase.Fs_ops.create ~name:"crash-marker" ~data:(Bytes.make 42 '\000'));
  save_device device path;
  Printf.printf "%s now looks like a crashed volume (uncommitted create pending)\n" path

let cmd_inspect path =
  with_volume ~save:false path (fun vol ->
      match vol with
      | Fsd_vol fs -> print_string (Cedar_fsd.Inspect.volume_report fs)
      | Cfs_vol _ -> fail "inspect currently supports FSD volumes")

let cmd_recover path =
  guard @@ fun () ->
  let device = load_device path in
  (match detect device with
  | `Fsd _ ->
    let fs, r = Cedar_fsd.Fsd.boot device in
    Printf.printf
      "FSD recovery: %d records, %d pages home, %d corrected sectors, VAM %s; %.2f s total\n"
      r.Cedar_fsd.Fsd.replayed_records r.Cedar_fsd.Fsd.replayed_pages
      r.Cedar_fsd.Fsd.corrected_sectors
      (match r.Cedar_fsd.Fsd.vam_source with
      | Cedar_fsd.Fsd.Vam_loaded -> "loaded"
      | Cedar_fsd.Fsd.Vam_replayed -> "replayed from the log"
      | Cedar_fsd.Fsd.Vam_reconstructed -> "reconstructed")
      (Simclock.s_of_us r.Cedar_fsd.Fsd.total_us);
    Cedar_fsd.Fsd.shutdown fs
  | `Cfs ->
    let fs, r = Cedar_cfs.Cfs.scavenge device in
    Printf.printf "CFS scavenge: %d files recovered, %d lost, %.1f s\n"
      r.Cedar_cfs.Cfs.files_recovered r.Cedar_cfs.Cfs.files_lost
      (Simclock.s_of_us r.Cedar_cfs.Cfs.duration_us);
    Cedar_cfs.Cfs.shutdown fs);
  save_device device path

(* Scavenge of last resort: rebuild the name table and VAM from whatever
   survives on disk (FSD: leader pages; CFS: its own scavenger), then boot
   to prove the result is sound. *)
let cmd_scavenge path =
  guard @@ fun () ->
  let device = load_device path in
  (match detect device with
  | `Fsd _ ->
    let r = Cedar_fsd.Scavenge.run device in
    Printf.printf "FSD scavenge: %s; %.1f s\n"
      (Format.asprintf "%a" Cedar_fsd.Scavenge.pp_report r)
      (Simclock.s_of_us r.Cedar_fsd.Scavenge.duration_us);
    let fs, _ = Cedar_fsd.Fsd.boot device in
    (match Cedar_fsd.Fsd.check fs with
    | Ok () -> print_endline "structural check: ok"
    | Error m -> Printf.printf "structural check FAILED: %s\n" m);
    Cedar_fsd.Fsd.shutdown fs
  | `Cfs ->
    let fs, r = Cedar_cfs.Cfs.scavenge device in
    Printf.printf "CFS scavenge: %d files recovered, %d lost, %.1f s\n"
      r.Cedar_cfs.Cfs.files_recovered r.Cedar_cfs.Cfs.files_lost
      (Simclock.s_of_us r.Cedar_cfs.Cfs.duration_us);
    Cedar_cfs.Cfs.shutdown fs);
  save_device device path

(* ------------------------------------------------------------------ *)
(* Observability: stats / trace replay the fixed scripted workload     *)

module Obs = Cedar_obs
module Script = Cedar_workload.Obs_script

(* Live --watch rendering: one plain-text frame per monitor sample. On a
   tty each frame repaints the screen; on a pipe frames are appended
   verbatim with no escape sequences, so redirected output is the
   deterministic frame sequence itself. *)
let attach_watch out mon =
  let tty =
    try Unix.isatty (Unix.descr_of_out_channel out)
    with Unix.Unix_error _ -> false
  in
  Obs.Monitor.set_on_sample mon (fun s ->
      if tty then output_string out "\x1b[2J\x1b[H";
      output_string out
        (Obs.Timeline.render_frame
           ~spark:[ "sat.device_busy"; "sat.op_rate_s"; "sat.phase_queue" ]
           ~history:(Obs.Monitor.samples mon) s);
      if not tty then output_char out '\n';
      flush out)

(* The timeline as pretty JSON to [path] ("-" for stdout), ending in a
   newline. *)
let write_timeline path samples =
  let s = Obs.Jsonb.to_string_pretty (Obs.Timeline.to_json samples) in
  if path = "-" then print_endline s
  else begin
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  end

(* Run the scripted workload with tracing on; the volume is NOT saved,
   so the image on disk is untouched by the measurement files. *)
let cmd_stats path json watch =
  with_volume ~save:false path (fun vol ->
      let ops = ops_of vol in
      let device = ops.Cedar_fsbase.Fs_ops.device in
      Script.warmup ops;
      if watch then begin
        match vol with
        | Cfs_vol _ -> fail "--watch requires an FSD volume (telemetry monitor)"
        | Fsd_vol fs ->
          (* frames to stderr under --json so the report stays parseable *)
          attach_watch (if json then stderr else stdout)
            (Cedar_fsd.Fsd.enable_monitor fs)
      end;
      let tr = Device.trace device in
      Obs.Trace.enable tr;
      Script.scripted ops;
      Obs.Trace.disable tr;
      let entries = Obs.Trace.to_list tr in
      let per_op = Obs.Tables.per_op entries in
      let log = Obs.Tables.log_activity entries in
      let sector_bytes = (Device.geometry device).Geometry.sector_bytes in
      if json then begin
        let obj =
          Obs.Jsonb.Obj
            [
              ( "workload",
                Obs.Jsonb.Obj
                  [
                    ("files", Obs.Jsonb.Int Script.n);
                    ("bytes_each", Obs.Jsonb.Int Script.bytes_each);
                  ] );
              ("per_op", Obs.Tables.per_op_json per_op);
              ("log", Obs.Tables.log_json ~sector_bytes log);
              ("metrics", Obs.Metrics.to_json (Device.metrics device));
              ("iostats", Iostats.to_json (Device.stats device));
            ]
        in
        print_endline (Obs.Jsonb.to_string_pretty obj)
      end
      else begin
        Printf.printf
          "scripted workload: %d files of %d bytes under %s/ (create, force, \
           open, read, list, delete, force)\n\n"
          Script.n Script.bytes_each Script.dir;
        Format.printf "%a@.@." Obs.Tables.pp_per_op per_op;
        Format.printf "%a@.@." Obs.Tables.pp_log log;
        Format.printf "%a@." Obs.Metrics.pp (Device.metrics device)
      end)

(* Tracing is enabled BEFORE boot so recovery-phase and VAM-rebuild
   events are captured too. *)
let cmd_trace path limit chrome =
  guard @@ fun () ->
  (match limit with
  | Some n when n <= 0 -> fail "--limit must be a positive entry count (got %d)" n
  | Some _ | None -> ());
  let device = load_device path in
  Obs.Trace.enable (Device.trace device);
  let vol = boot_vol device in
  let ops = ops_of vol in
  (* Under --chrome an FSD volume also runs the monitor, so the export
     carries counter tracks alongside the span tree. *)
  let mon =
    match (chrome, vol) with
    | Some _, Fsd_vol fs -> Some (Cedar_fsd.Fsd.enable_monitor fs)
    | _ -> None
  in
  Script.warmup ops;
  Script.scripted ops;
  let tr = Device.trace device in
  let entries = Obs.Trace.to_list tr in
  match chrome with
  | Some out ->
    let samples =
      match mon with Some m -> Obs.Monitor.samples m | None -> []
    in
    let oc = open_out out in
    output_string oc (Obs.Jsonb.to_string (Obs.Export.chrome ~samples entries));
    output_char oc '\n';
    close_out oc;
    Printf.printf
      "wrote %d trace entries as Chrome trace events to %s (load in \
       about://tracing or ui.perfetto.dev)\n"
      (List.length entries) out
  | None ->
    let shown =
      match limit with
      | None -> entries
      | Some n ->
        let len = List.length entries in
        List.filteri (fun i _ -> i >= len - n) entries
    in
    List.iter (fun e -> Format.printf "%a@." Obs.Trace.pp_entry e) shown;
    Printf.printf "(%d entries buffered, %d dropped)\n" (Obs.Trace.length tr)
      (Obs.Trace.dropped tr)

(* Multi-client server run: N sessions replay closed-loop scripts under
   the cooperative scheduler, sharing group-commit forces (§5.4). The
   image is not saved — serve is a measurement harness like [stats], and
   keeping the image untouched makes same-seed runs byte-comparable.

   With --volumes V > 1 the sessions run against V fresh in-memory
   volumes behind the sharded front end (one log and group-commit
   batcher each); a single on-disk IMAGE holds one volume, so the two
   are mutually exclusive. *)
let print_serve_report json r =
  let module S = Cedar_server.Server in
  if json then print_endline (Obs.Jsonb.to_string_pretty (S.report_json r))
  else begin
    Printf.printf
      "%d clients, %.2f s simulated: %d ops (%d mutating acked, %d errors)\n"
      r.S.clients
      (Simclock.s_of_us r.S.duration_us)
      r.S.total_ops r.S.mutations_acked r.S.total_errors;
    Printf.printf
      "group commit: %d log forces (%d server-initiated), %.1f acked \
       mutations/force\n"
      r.S.log_forces r.S.server_forces r.S.ops_per_force;
    Printf.printf "commit wait: mean %.1f ms, p50 %.1f, p99 %.1f, max %.1f (%d waits)\n"
      (r.S.wait_mean_us /. 1000.) (r.S.wait_p50_us /. 1000.)
      (r.S.wait_p99_us /. 1000.) (r.S.wait_max_us /. 1000.) r.S.wait_n;
    Printf.printf "batches: %d, mean %.1f sessions woken, max %.0f\n"
      r.S.batch_n r.S.batch_mean r.S.batch_max;
    if List.length r.S.per_volume > 1 then
      List.iter
        (fun v ->
          Printf.printf
            "  volume %d: %d log forces (%d server-initiated), %d acked%s\n"
            v.S.vr_volume v.S.vr_log_forces v.S.vr_server_forces v.S.vr_acked
            (if v.S.vr_crashed then ", CRASHED" else ""))
        r.S.per_volume;
    List.iter
      (fun s ->
        Printf.printf
          "  session %02d: %d ops, %d acked, %d errors, wait max %.1f ms\n"
          s.S.r_client s.S.r_ops s.S.r_mutations s.S.r_errors
          (float_of_int s.S.r_wait_max_us /. 1000.))
      r.S.per_session
  end

(* The workload serve and why share, from their common flags: the §7
   make/do sessions by default, open-loop Poisson traffic under
   --open-loop, or (why only) the log-wrap churn workload; on several
   volumes each client's names are pinned to one of them. *)
let server_scripts clients seed think_us rounds open_rate ops ~churn ~volumes =
  let module C = Cedar_workload.Concurrent in
  if clients < 1 then fail "--clients must be at least 1 (got %d)" clients;
  let check_ops () =
    if ops < 1 then fail "--ops must be at least 1 (got %d)" ops
  in
  let scripts =
    match (open_rate, churn) with
    | Some _, true -> fail "--open-loop and --churn are mutually exclusive"
    | Some rate, false ->
      if not (Float.is_finite rate && rate > 0.0) then
        fail "--open-loop rate must be finite and positive (got %g)" rate;
      check_ops ();
      C.open_loop
        { C.default_open with C.ol_rate_per_s = rate; ol_ops = ops;
          ol_seed = seed }
        ~clients
    | None, true ->
      check_ops ();
      C.churn_scripts
        { C.default_churn with C.churn_ops = ops; churn_seed = seed }
        ~clients
    | None, false ->
      C.makedo_scripts { C.default_spec with C.seed; think_us; rounds } ~clients
  in
  if volumes > 1 then C.shard_scripts scripts ~volumes else scripts

let cmd_serve path volumes workload json watch timeline disk_sched disk_qdepth =
  if volumes < 1 || volumes > 256 then
    fail "--volumes must be in [1, 256] (got %d)" volumes;
  if disk_qdepth < 0 || disk_qdepth > 128 then
    fail "--disk-qdepth must be in [0, 128] (got %d)" disk_qdepth;
  let sched =
    match Cedar_disk.Device.policy_of_string disk_sched with
    | Some p -> p
    | None ->
      fail "--disk-sched must be fifo, elevator or sstf (got %s)" disk_sched
  in
  let scripts = workload ~churn:false ~volumes in
  if volumes > 1 then begin
    (match path with
    | None -> ()
    | Some p ->
      fail
        "--volumes %d runs on fresh in-memory volumes (an IMAGE holds one \
         volume); omit %s"
        volumes p);
    if watch || timeline <> None then
      fail "--watch/--timeline need a single volume's monitor";
    guard (fun () ->
        let clock = Simclock.create () in
        let params =
          {
            Cedar_fsd.Params.default with
            Cedar_fsd.Params.disk_sched = sched;
            disk_qdepth;
          }
        in
        let vset =
          Cedar_volumes.Volume_set.create_fresh ~params ~clock volumes
        in
        let r = Cedar_server.Server.serve_volumes vset scripts in
        print_serve_report json r)
  end
  else begin
    let path =
      match path with Some p -> p | None -> fail "serve: missing IMAGE argument"
    in
    with_volume ~save:false ~queue:(sched, disk_qdepth) path (fun vol ->
        match vol with
        | Cfs_vol _ -> fail "serve requires an FSD volume (group commit is FSD-only)"
        | Fsd_vol fs ->
          let mon =
            if watch || timeline <> None then
              Some (Cedar_fsd.Fsd.enable_monitor fs)
            else None
          in
          (match mon with
          | Some m when watch ->
            (* frames to stderr under --json so the report stays parseable *)
            attach_watch (if json then stderr else stdout) m
          | Some _ | None -> ());
          let r =
            Cedar_server.Server.serve_volumes
              (Cedar_volumes.Volume_set.of_fsd fs) scripts
          in
          (match (mon, timeline) with
          | Some m, Some p -> write_timeline p (Obs.Monitor.samples m)
          | _ -> ());
          print_serve_report json r)
  end

(* Latency anatomy: run a server workload with lifecycle tracing on,
   collect the server's per-op phase records from the trace (Critpath)
   and report which phase dominates the tail. The image is not saved, so
   same-seed runs are byte-comparable — `why --json` is deterministic. *)
let cmd_why path workload churn json op_filter top chrome =
  if top < 1 then fail "--top must be at least 1 (got %d)" top;
  let module C = Cedar_workload.Concurrent in
  Option.iter
    (fun op ->
      if not (List.mem op C.op_kinds) then
        fail "--op %S is not an op kind (one of: %s)" op
          (String.concat ", " C.op_kinds))
    op_filter;
  let scripts = workload ~churn ~volumes:1 in
  with_volume ~save:false path (fun vol ->
      match vol with
      | Cfs_vol _ -> fail "why requires an FSD volume (server lifecycles)"
      | Fsd_vol fs ->
        let tr = Cedar_fsd.Fsd.trace fs in
        (* A generous ring, but not a bound on the run: an op record
           that falls off it would be missing from the anatomy. *)
        Obs.Trace.enable ~capacity:(1 lsl 20) tr;
        ignore
          (Cedar_server.Server.serve_volumes
             (Cedar_volumes.Volume_set.of_fsd fs) scripts
            : Cedar_server.Server.report);
        Obs.Trace.disable tr;
        if Obs.Trace.dropped tr > 0 then
          fail
            "trace ring overflowed: %d entries dropped, so the anatomy would \
             miss ops; shorten the run"
            (Obs.Trace.dropped tr);
        let entries = Obs.Trace.to_list tr in
        let anatomy = Obs.Critpath.fold entries in
        (match chrome with
        | None -> ()
        | Some out ->
          let oc = open_out out in
          output_string oc (Obs.Jsonb.to_string (Obs.Export.chrome entries));
          close_out oc;
          Printf.eprintf "wrote Chrome trace to %s\n" out);
        if json then
          print_endline
            (Obs.Jsonb.to_string_pretty
               (Obs.Critpath.to_json ?op:op_filter ~top anatomy))
        else
          Format.printf "@[<v>%a@]@."
            (fun ppf -> Obs.Critpath.pp ?op:op_filter ~top ppf)
            anatomy;
        if not anatomy.Obs.Critpath.all_conserved then begin
          prerr_endline "cedar: phase conservation violated (trace malformed)";
          exit 1
        end)

(* Systematic crash-injection sweep over the server path. Runs on fresh
   in-memory volumes (the deterministic 2-client reference workload is
   replayed once per crash coordinate), so there is no IMAGE argument
   and nothing on disk is touched. *)
let cmd_faultsweep clients tear max_forces scavenge wrap json =
  let module F = Cedar_server.Faultsweep in
  if clients < 1 then fail "--clients must be at least 1 (got %d)" clients;
  (match max_forces with
  | Some k when k <= 0 -> fail "--max-forces must be positive (got %d)" k
  | Some _ | None -> ());
  let tears =
    match tear with
    | "all" -> F.all_tears
    | t -> (
      match F.tear_of_name t with
      | Some m -> [ m ]
      | None -> fail "unknown tear mode %S (none|zero|garbage|damage|all)" t)
  in
  let workload = if wrap then F.Wrap F.default_wrap_spec else F.Reference in
  let s =
    try F.sweep { F.clients; tears; max_forces; scavenge; workload }
    with F.Refused why -> fail "faultsweep: %s" why
  in
  if json then print_endline (Obs.Jsonb.to_string_pretty (F.summary_json s))
  else Format.printf "%a@." F.pp s;
  if s.F.sw_violations <> [] then exit 1

(* Log-wrap endurance on a fresh in-memory volume: the faultsweep
   harness's clean run of the churn workload, which must wrap the log and
   pass the one crash-contract verdict. *)
let cmd_churn clients ops slots seed force_every tiny min_wraps json =
  let module F = Cedar_server.Faultsweep in
  let module C = Cedar_workload.Concurrent in
  if clients < 1 then fail "--clients must be at least 1 (got %d)" clients;
  if ops < 1 then fail "--ops must be at least 1 (got %d)" ops;
  if slots < 1 then fail "--slots must be at least 1 (got %d)" slots;
  if force_every < 0 then
    fail "--force-every must be non-negative (got %d)" force_every;
  if min_wraps < 0 then fail "--min-wraps must be non-negative (got %d)" min_wraps;
  let spec =
    {
      C.default_churn with
      C.churn_ops = ops;
      slots;
      churn_seed = seed;
      force_every;
    }
  in
  let geom = if tiny then Geometry.tiny_test else Geometry.small_test in
  let r = F.clean_run ~geom ~clients (F.Wrap spec) in
  if json then print_endline (Obs.Jsonb.to_string_pretty (F.clean_run_json r))
  else Format.printf "%a@." F.pp_clean_run r;
  if r.F.c_third_entries < 3 * min_wraps then begin
    Format.eprintf "cedar: log wrapped %.1f time(s), wanted %d@."
      (float_of_int r.F.c_third_entries /. 3.0)
      min_wraps;
    exit 1
  end;
  if not (F.passed r) then exit 1

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)

open Cmdliner

let img = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")
let name_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME")

let mkfs_cmd =
  let fs_kind =
    Arg.(value & opt string "fsd" & info [ "fs" ] ~docv:"FS" ~doc:"fsd or cfs")
  in
  let geom =
    Arg.(value & opt string "t300" & info [ "geometry" ] ~docv:"G" ~doc:"t300 or small")
  in
  let log_vam =
    Arg.(value & flag & info [ "log-vam" ] ~doc:"enable the VAM-logging extension")
  in
  let track_tolerant =
    Arg.(
      value & flag
      & info [ "track-tolerant" ] ~doc:"log records survive whole-track losses")
  in
  Cmd.v (Cmd.info "mkfs" ~doc:"create a fresh volume image")
    Term.(const cmd_mkfs $ img $ fs_kind $ geom $ log_vam $ track_tolerant)

let put_cmd =
  Cmd.v (Cmd.info "put" ~doc:"store stdin as a new version of NAME")
    Term.(const cmd_put $ img $ name_arg)

let get_cmd =
  Cmd.v (Cmd.info "get" ~doc:"write the newest version of NAME to stdout")
    Term.(const cmd_get $ img $ name_arg)

let ls_cmd =
  let prefix = Arg.(value & pos 1 string "" & info [] ~docv:"PREFIX") in
  Cmd.v (Cmd.info "ls" ~doc:"list files") Term.(const cmd_ls $ img $ prefix)

let rm_cmd =
  Cmd.v (Cmd.info "rm" ~doc:"delete the newest version of NAME")
    Term.(const cmd_rm $ img $ name_arg)

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"volume summary and structural check")
    Term.(const cmd_info $ img)

let crash_cmd =
  Cmd.v (Cmd.info "crash" ~doc:"leave the volume in a crashed state")
    Term.(const cmd_crash $ img)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"dump the volume's structures (log, name table, free map)")
    Term.(const cmd_inspect $ img)

let recover_cmd =
  Cmd.v (Cmd.info "recover" ~doc:"run crash recovery (FSD log replay / CFS scavenge)")
    Term.(const cmd_recover $ img)

let scavenge_cmd =
  Cmd.v
    (Cmd.info "scavenge"
       ~doc:"rebuild volume metadata from leader pages (survives total name-table loss)")
    Term.(const cmd_scavenge $ img)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit one JSON object instead of tables")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "render a live telemetry frame per monitor sample while the \
             workload runs (plain text on a pipe; with --json, frames go to \
             stderr)")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "run the fixed scripted workload with tracing on and print per-op I/O \
          and latency, log activity, ops per force, the force cadence and \
          log-third occupancy (the image is not modified)")
    Term.(const cmd_stats $ img $ json $ watch)

let trace_cmd =
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"print only the last $(docv) entries")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"PATH"
          ~doc:
            "write the trace as Chrome trace-event JSON to $(docv) (viewable in \
             about://tracing or Perfetto) instead of dumping entries")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "boot with tracing enabled (capturing recovery events), run the \
          scripted workload and dump the event trace")
    Term.(const cmd_trace $ img $ limit $ chrome)

(* The flags serve and why share, evaluated to [server_scripts] awaiting
   the command's own [~churn] and [~volumes]. *)
let workload =
  let clients =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"number of concurrent client sessions")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"workload seed")
  in
  let think =
    Arg.(
      value & opt int 50_000
      & info [ "think" ] ~docv:"US"
          ~doc:"mean per-step client think time in simulated microseconds")
  in
  let rounds =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"R" ~doc:"make/do build passes per client")
  in
  let open_loop =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"RATE"
          ~doc:
            "replace the closed-loop make/do workload with deterministic \
             open-loop traffic: Poisson arrivals at $(docv) ops/s aggregate, \
             pinned to the virtual clock (a session behind schedule issues \
             immediately), heavy-tailed create sizes and zipfian hot-directory \
             names")
  in
  let ops =
    Arg.(
      value
      & opt int
          Cedar_workload.Concurrent.default_open.Cedar_workload.Concurrent.ol_ops
      & info [ "ops" ] ~docv:"N"
          ~doc:
            "total open-loop arrivals across all clients (with --open-loop), \
             or churn steps per client (with why --churn)")
  in
  Term.(const server_scripts $ clients $ seed $ think $ rounds $ open_loop $ ops)

let serve_cmd =
  let serve_img =
    (* Optional here only: --volumes N>1 serves fresh in-memory volumes
       and takes no image (a single image holds a single volume). *)
    Arg.(value & pos 0 (some string) None & info [] ~docv:"IMAGE")
  in
  let volumes =
    Arg.(
      value & opt int 1
      & info [ "volumes" ] ~docv:"V"
          ~doc:
            "serve $(docv) independent fresh in-memory volumes behind the \
             sharded front end (per-volume logs and group-commit batchers; \
             file names route by a stable hash of their first path \
             component). Mutually exclusive with IMAGE; the default 1 \
             serves the given IMAGE exactly as before")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the deterministic JSON report")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "render a live telemetry dashboard (one frame per \
             monitor sample: counter deltas, saturation gauges, commit-wait \
             percentiles, sparklines). Plain text on a pipe — no escape \
             codes; with --json, frames go to stderr")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"PATH"
          ~doc:"write the telemetry timeline as JSON to $(docv) (- for stdout)")
  in
  let disk_sched =
    Arg.(
      value & opt string "fifo"
      & info [ "disk-sched" ] ~docv:"POLICY"
          ~doc:
            "disk request scheduling policy when --disk-qdepth enables the \
             queue: fifo (arrival order), elevator (sweeping arm) or sstf \
             (shortest seek first, with an aging bound)")
  in
  let disk_qdepth =
    Arg.(
      value & opt int 0
      & info [ "disk-qdepth" ] ~docv:"D"
          ~doc:
            "queue up to $(docv) data-path disk requests per device and let \
             --disk-sched pick the service order (seek time is charged in \
             service order). 0 (default) keeps the synchronous data path; \
             depth 1 queues but cannot reorder, so it behaves identically \
             to 0")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run N concurrent client sessions against the volume (or, with \
          --volumes V, against V sharded in-memory volumes) under the \
          deterministic cooperative scheduler, batching their transactions \
          into per-volume group-commit forces (the image is not modified; \
          same-seed runs produce byte-identical reports)")
    Term.(
      const cmd_serve $ serve_img $ volumes $ workload $ json $ watch $ timeline
      $ disk_sched $ disk_qdepth)

let why_cmd =
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"drive the log-wrap churn workload instead of make/do")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the deterministic JSON anatomy")
  in
  let op_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "op" ] ~docv:"TYPE"
          ~doc:
            ("restrict the report to one op kind: "
            ^ String.concat ", " Cedar_workload.Concurrent.op_kinds))
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"show the $(docv) slowest ops in full")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"PATH"
          ~doc:
            "also write the traced run as Chrome trace-event JSON — per-session \
             tracks with queue, parked and append phase slices around each \
             executing span — for about://tracing or Perfetto")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "run a server workload with lifecycle tracing on and explain where \
          each op's latency went: per-op phase vectors (queue, execute with \
          its device seek/transfer split, log append, parked-for-force) that \
          sum exactly to end-to-end latency, per-kind \
          p50/p90/p99 and the phase to blame for the p99 tail (the image is \
          not modified; exits non-zero if conservation is violated or the \
          trace ring overflowed)")
    Term.(
      const cmd_why $ img $ workload $ churn $ json $ op_filter $ top $ chrome)

let churn_cmd =
  let clients =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"number of concurrent churn sessions")
  in
  let ops =
    Arg.(
      value
      & opt int Cedar_workload.Concurrent.default_churn.Cedar_workload.Concurrent.churn_ops
      & info [ "ops" ] ~docv:"N" ~doc:"churn steps per client")
  in
  let slots =
    Arg.(
      value
      & opt int Cedar_workload.Concurrent.default_churn.Cedar_workload.Concurrent.slots
      & info [ "slots" ] ~docv:"N"
          ~doc:"distinct names in each client's working set")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"workload seed")
  in
  let force_every =
    Arg.(
      value
      & opt int
          Cedar_workload.Concurrent.default_churn.Cedar_workload.Concurrent.force_every
      & info [ "force-every" ] ~docv:"N"
          ~doc:"explicit log force every $(docv) mutations (0 disables)")
  in
  let tiny =
    Arg.(
      value & flag
      & info [ "tiny" ]
          ~doc:
            "run on the tiny test geometry, whose 37-sector log thirds wrap \
             orders of magnitude faster for the same op count")
  in
  let min_wraps =
    Arg.(
      value & opt int 1
      & info [ "min-wraps" ] ~docv:"W"
          ~doc:"fail unless the log wrapped at least $(docv) full times")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the deterministic JSON report")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "run the log-wrap churn workload (create/overwrite/delete over a \
          small working set) through the concurrent server on a fresh \
          in-memory volume until the log has wrapped, then give the volume \
          faultsweep's verdict: structural check, no alien names, the \
          version-aware oracle, VAM agreement with the name table, and a \
          clean shutdown + reboot that replays zero records and changes \
          nothing; exits non-zero on any violation or if the log wrapped \
          fewer than --min-wraps times")
    Term.(
      const cmd_churn $ clients $ ops $ slots $ seed $ force_every $ tiny
      $ min_wraps $ json)

let faultsweep_cmd =
  let clients =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"concurrent sessions in the reference workload")
  in
  let tear =
    Arg.(
      value & opt string "all"
      & info [ "tear" ] ~docv:"MODE"
          ~doc:
            "how the interrupted sector is left behind: none (write never \
             starts), zero, garbage, damage (unreadable), or all")
  in
  let max_forces =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-forces" ] ~docv:"K"
          ~doc:"sweep only the first $(docv) force intervals")
  in
  let scavenge =
    Arg.(
      value & flag
      & info [ "scavenge" ]
          ~doc:
            "destroy both name-table copies after every crash, forcing \
             recovery through the scavenger of last resort")
  in
  let wrap =
    Arg.(
      value & flag
      & info [ "wrap" ]
          ~doc:
            "replay the log-wrap churn workload on a tiny volume instead of \
             the reference script, and sweep only the force intervals in \
             the wrap window (third entries and their neighbours) — crashes \
             land during home-write bursts, the reclamation pointer rewrite, \
             and the appends on each side of the wrap")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the deterministic JSON summary")
  in
  Cmd.v
    (Cmd.info "faultsweep"
       ~doc:
         "crash the multi-client server at every sector write of every \
          group-commit force interval (optionally tearing the interrupted \
          sector), reboot each time, and check the recovery contract: acked \
          mutations byte-exact, unacked wholly absent, VAM consistent with \
          the name table, and a clean reboot after recovery replaying \
          nothing. The crash-free run the sweep is measured from must pass \
          the same checks. Runs on fresh in-memory volumes; exits non-zero \
          on any violation")
    Term.(
      const cmd_faultsweep $ clients $ tear $ max_forces $ scavenge $ wrap $ json)

let () =
  let doc = "simulated Cedar file-system volumes (Hagmann, SOSP 1987)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "cedar" ~doc)
          [
            mkfs_cmd;
            put_cmd;
            get_cmd;
            ls_cmd;
            rm_cmd;
            info_cmd;
            inspect_cmd;
            crash_cmd;
            recover_cmd;
            scavenge_cmd;
            stats_cmd;
            trace_cmd;
            serve_cmd;
            why_cmd;
            churn_cmd;
            faultsweep_cmd;
          ]))
