open Cedar_util
open Cedar_disk
open Cedar_fsd

type t = {
  vols : Fsd.t array;
  devices : Device.t array;
  clock : Simclock.t;
  metrics : Cedar_obs.Metrics.t; (* root registry, every volume visible *)
  trace : Cedar_obs.Trace.t;
}

(* For one volume the device registry IS the root: no prefix anywhere,
   the historical names. *)
let of_fsd fs =
  if Fsd.shard fs <> 0 then
    invalid_arg
      (Printf.sprintf "Volume_set.of_fsd: volume is shard %d" (Fsd.shard fs));
  let device = Fsd.device fs in
  {
    vols = [| fs |];
    devices = [| device |];
    clock = Device.clock device;
    metrics = Device.metrics device;
    trace = Device.trace device;
  }

let create_fresh ?(geom = Geometry.trident_t300) ?params ~clock count =
  (* The log record header stores the shard id as one byte. *)
  if count < 1 || count > 256 then
    invalid_arg "Volume_set.create_fresh: volume count outside [1, 256]";
  let base = match params with Some p -> p | None -> Params.for_geometry geom in
  let trace = Cedar_obs.Trace.create () in
  let metrics = Cedar_obs.Metrics.create () in
  let scoped_view i =
    if count = 1 then metrics
    else Cedar_obs.Metrics.scoped metrics (Printf.sprintf "vol%d." i)
  in
  let devices =
    Array.init count (fun i ->
        (* Several volumes = several spindles: each device runs on its own
           timeline (depth 1), so their commands overlap in simulated time
           instead of serialising on the shared clock. One volume keeps
           the shared clock (depth 0). *)
        Device.create ~id:i ~depth:(if count > 1 then 1 else 0) ~trace
          ~metrics:(scoped_view i) ~clock geom)
  in
  let vols =
    Array.mapi
      (fun i device ->
        let params = { base with Params.shard_id = i } in
        Fsd.format device params;
        fst (Fsd.boot ~params device))
      devices
  in
  { vols; devices; clock; metrics; trace }

let count t = Array.length t.vols
let vol t i = t.vols.(i)
let device t i = t.devices.(i)
let clock t = t.clock
let metrics t = t.metrics
let trace t = t.trace
let route t name = Cedar_fsbase.Fname.shard ~shards:(count t) name

(* Reboot volume [i] in place (the caller just crash-recovered it). The
   replacement must have been booted from the same device so the scoped
   registry, trace and clock are unchanged — identity the set relies
   on. *)
let replace t i fs =
  if Fsd.device fs != t.devices.(i) then
    invalid_arg "Volume_set.replace: replacement booted from another device";
  if Fsd.shard fs <> i then
    invalid_arg "Volume_set.replace: replacement has the wrong shard id";
  t.vols.(i) <- fs

let iter f t = Array.iteri f t.vols
