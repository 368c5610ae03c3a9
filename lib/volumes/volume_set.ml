open Cedar_util
open Cedar_disk
open Cedar_fsd

type t = {
  map : Shard_map.t;
  vols : Fsd.t array;
  devices : Device.t array;
  clock : Simclock.t;
  metrics : Cedar_obs.Metrics.t; (* root registry, every volume visible *)
  trace : Cedar_obs.Trace.t;
}

let prefix ~count i = if count <= 1 then "" else Printf.sprintf "vol%d." i

let scoped_view ~count metrics i =
  let p = prefix ~count i in
  if p = "" then metrics else Cedar_obs.Metrics.scoped metrics p

let of_fsds ?metrics vols =
  let count = Array.length vols in
  if count = 0 then invalid_arg "Volume_set.of_fsds: empty";
  Array.iteri
    (fun i fs ->
      if Fsd.shard fs <> i then
        invalid_arg
          (Printf.sprintf "Volume_set.of_fsds: volume %d is shard %d" i
             (Fsd.shard fs)))
    vols;
  let devices = Array.map Fsd.device vols in
  let clock = Device.clock devices.(0) in
  let metrics =
    (* For one volume the device registry IS the root (no prefix
       anywhere — the historical names); for several the caller must
       hand us the root their scoped per-device views were cut from. *)
    match metrics with
    | Some m -> m
    | None ->
      if count > 1 then
        invalid_arg "Volume_set.of_fsds: multi-volume set needs ~metrics (root)";
      Device.metrics devices.(0)
  in
  {
    map = Shard_map.create ~shards:count;
    vols;
    devices;
    clock;
    metrics;
    trace = Device.trace devices.(0);
  }

let of_fsd fs = of_fsds [| fs |]

let create_fresh ?(geom = Geometry.trident_t300) ?params ?trace ?metrics ~clock
    count =
  if count < 1 || count > Shard_map.max_shards then
    invalid_arg "Volume_set.create_fresh: volume count out of range";
  let base = match params with Some p -> p | None -> Params.for_geometry geom in
  let trace = match trace with Some tr -> tr | None -> Cedar_obs.Trace.create () in
  let metrics =
    match metrics with Some m -> m | None -> Cedar_obs.Metrics.create ()
  in
  let devices =
    Array.init count (fun i ->
        (* Several volumes = several spindles: each device runs on its own
           timeline (depth 1), so their commands overlap in simulated time
           instead of serialising on the shared clock. One volume keeps
           the shared clock (depth 0). *)
        Device.create ~id:i ~depth:(if count > 1 then 1 else 0) ~trace
          ~metrics:(scoped_view ~count metrics i) ~clock geom)
  in
  let vols =
    Array.mapi
      (fun i device ->
        let params = { base with Params.shard_id = i } in
        Fsd.format device params;
        fst (Fsd.boot ~params device))
      devices
  in
  { map = Shard_map.create ~shards:count; vols; devices; clock; metrics; trace }

let count t = Array.length t.vols
let map t = t.map
let vol t i = t.vols.(i)
let device t i = t.devices.(i)
let clock t = t.clock
let metrics t = t.metrics
let trace t = t.trace
let route t name = Shard_map.route t.map name
let metrics_prefix t i = prefix ~count:(count t) i

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
