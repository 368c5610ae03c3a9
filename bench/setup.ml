(* Volume builders for the benchmark harness: fresh Trident-class 300 MB
   volumes for each system, plus helpers shared across tables. *)

open Cedar_util
open Cedar_disk

let geom = Geometry.trident_t300

let fsd_volume ?(params = Cedar_fsd.Params.default) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Cedar_fsd.Fsd.format device params;
  let fs, _report = Cedar_fsd.Fsd.boot ~params device in
  (device, fs)

let cfs_volume () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Cedar_cfs.Cfs.format device Cedar_cfs.Cfs_layout.default_params;
  match Cedar_cfs.Cfs.boot device with
  | `Ok fs -> (device, fs)
  | `Needs_scavenge -> failwith "fresh CFS volume failed to boot"

let ufs_volume params =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Cedar_unixfs.Ufs.mkfs device params;
  match Cedar_unixfs.Ufs.mount device with
  | `Ok fs -> (device, fs)
  | `Needs_fsck -> failwith "fresh UFS volume failed to mount"

(* Populate a volume through the generic interface so every system gets
   the same "moderately full" state. *)
let populate (ops : Cedar_fsbase.Fs_ops.t) ~files ~seed =
  let rng = Rng.create seed in
  for i = 0 to files - 1 do
    let dir = Printf.sprintf "vol/d%02d" (i mod 20) in
    let size = Cedar_workload.Sizes.sample rng in
    let data = Cedar_workload.Concurrent.content ~fill:i size in
    ignore (ops.Cedar_fsbase.Fs_ops.create ~name:(Printf.sprintf "%s/f%05d" dir i) ~data)
  done;
  ops.Cedar_fsbase.Fs_ops.force ()

let pct x = x *. 100.0

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* A snapshot's contract: its top-level "checks" object of named
   booleans, which the harness and bench diff enforce
   ([Drift.failed_checks]). *)
let checks cs =
  ("checks", Cedar_obs.Jsonb.Obj (List.map (fun (n, ok) -> (n, Cedar_obs.Jsonb.Bool ok)) cs))
