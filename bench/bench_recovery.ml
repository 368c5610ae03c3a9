(* Restart time vs live log length (bench recovery).

   The paper's §6 sells recovery as "read the log once, sequentially":
   restart cost must be linear in the amount of live log, not in volume
   size. This bench pins both halves of that claim. Per scale it boots
   a fresh volume with an enlarged log (so even the largest scale stays
   inside one third and nothing is reclaimed early), appends N
   single-record commits (create + explicit force), abandons the handle
   without shutdown — a crash — and reboots with the device trace
   enabled. The trace then gives:

   - the measured replay time and record/page counts, which must grow
     ~linearly across the 1x/10x/100x scales (check replay_linear);
   - every Dev_read that landed in the log body, which must touch no
     sector more than once — the single sequential pass (check
     single_pass, which also wants every committed record replayed).

   Deterministic (simulated clock, fixed workload), so the snapshot is
   byte-stable. *)

open Cedar_disk
open Cedar_fsd
module J = Cedar_obs.Jsonb
module Trace = Cedar_obs.Trace

let scales = [ 1; 10; 100 ]

(* Default Trident params hold 400-sector thirds; 100 single-create
   records need more, so grow the log until one third holds the whole
   run. Everything else is stock. *)
let params = { Params.default with Params.log_sectors = (3 * 3200) + 3 }

type row = {
  n : int;  (** records committed before the crash *)
  live_sectors : int;  (** log sectors those records occupy *)
  replayed : int;
  replayed_pages : int;
  replay_us : int;
  total_us : int;
  body_reads : int;  (** distinct log-body sectors read during boot *)
  max_reads : int;  (** worst reads-per-sector — must be <= 1 *)
}

let run_scale n =
  let device, fs = Setup.fsd_volume ~params () in
  for i = 0 to n - 1 do
    ignore
      (Fsd.create fs ~name:(Printf.sprintf "rec/f%04d" i)
         (Cedar_workload.Concurrent.content ~fill:0 700)
        : Cedar_fsbase.Fs_ops.info);
    Fsd.force fs
  done;
  let live_sectors = (Fsd.log_stats fs).Log.total_sectors in
  let layout = Fsd.layout fs in
  (* Crash: abandon the live handle and reboot straight off the device,
     tracing every sector the restart touches. *)
  let tr = Device.trace device in
  Trace.enable tr;
  let _fs2, br = Fsd.boot device in
  Trace.disable tr;
  let body_lo = layout.Layout.log_start + 3 in
  let body_hi = layout.Layout.log_start + layout.Layout.log_sectors in
  let reads = Hashtbl.create 1024 in
  Trace.iter tr (fun e ->
      match e.Trace.event with
      | Trace.Dev_read { sector; count; _ } ->
        for s = sector to sector + count - 1 do
          if s >= body_lo && s < body_hi then
            Hashtbl.replace reads s
              (1 + Option.value (Hashtbl.find_opt reads s) ~default:0)
        done
      | _ -> ());
  let max_reads = Hashtbl.fold (fun _ c m -> max c m) reads 0 in
  {
    n;
    live_sectors;
    replayed = br.Fsd.replayed_records;
    replayed_pages = br.Fsd.replayed_pages;
    replay_us = br.Fsd.log_replay_us;
    total_us = br.Fsd.total_us;
    body_reads = Hashtbl.length reads;
    max_reads;
  }

let per_record r = float_of_int r.replay_us /. float_of_int (max 1 r.n)

let row_json r =
  J.Obj
    [
      ("records", J.Int r.n);
      ("live_sectors", J.Int r.live_sectors);
      ("replayed_records", J.Int r.replayed);
      ("replayed_pages", J.Int r.replayed_pages);
      ("log_replay_us", J.Int r.replay_us);
      ("restart_total_us", J.Int r.total_us);
      ("log_body_sectors_read", J.Int r.body_reads);
      ("max_reads_per_sector", J.Int r.max_reads);
      ("replay_us_per_record", J.Float (per_record r));
    ]

(* Single pass: every row replays exactly the records it committed and
   reads no log-body sector twice. *)
let single_pass rows =
  List.for_all (fun r -> r.replayed = r.n && r.max_reads <= 1) rows

(* Linearity: per-record replay cost must not grow with scale (fixed
   boot costs shrink it instead). A super-linear replay would roughly
   double us/record each decade; 1.5x catches that while tolerating
   noise-free simulated-time quantisation. *)
let replay_linear = function
  | small :: rest -> List.for_all (fun r -> per_record r <= 1.5 *. per_record small) rest
  | [] -> true

let build () =
  Setup.hr "restart time vs live log length (single-pass REDO replay)";
  let rows = List.map run_scale scales in
  Printf.printf "  %8s %12s %9s %8s %10s %11s %10s\n" "records" "live-sect"
    "replayed" "pages" "replay-us" "us/record" "max-reads";
  List.iter
    (fun r ->
      Printf.printf "  %8d %12d %9d %8d %10d %11.1f %10d\n" r.n r.live_sectors
        r.replayed r.replayed_pages r.replay_us (per_record r) r.max_reads)
    rows;
  J.Obj
    [
      ("bench", J.Str "recovery-restart");
      ("geometry", J.Str (Format.asprintf "%a" Geometry.pp Setup.geom));
      ("log_sectors", J.Int params.Params.log_sectors);
      Setup.checks
        [ ("single_pass", single_pass rows); ("replay_linear", replay_linear rows) ];
      ("rows", J.Arr (List.map row_json rows));
    ]
