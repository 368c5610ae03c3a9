(* A MakeDo-style build (the paper's metadata-intensive client) run on
   all three file systems through the common interface, comparing disk
   I/Os and elapsed virtual time. The build is client 0's make/do script,
   the one the server serves, replayed directly.

     dune exec examples/bulk_build.exe *)

open Cedar_util
open Cedar_disk
open Cedar_workload

let modules = 30

let run_on label ops =
  let s = Concurrent.makedo_direct ops ~modules in
  Printf.printf "%-8s %6d I/Os  %8.1f ms  (%d reads, %d writes)\n" label
    s.Measure.ios (Measure.time_ms s) s.Measure.reads s.Measure.writes;
  s

let () =
  Printf.printf "MakeDo build of %d modules (reads, temps, derived objects, DF file)\n\n"
    modules;
  let fsd =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.trident_t300 in
    Cedar_fsd.Fsd.format device Cedar_fsd.Params.default;
    let fs, _ = Cedar_fsd.Fsd.boot device in
    run_on "FSD" (Cedar_fsd.Fsd.ops fs)
  in
  let cfs =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.trident_t300 in
    Cedar_cfs.Cfs.format device Cedar_cfs.Cfs_layout.default_params;
    match Cedar_cfs.Cfs.boot device with
    | `Ok fs -> run_on "CFS" (Cedar_cfs.Cfs.ops fs)
    | `Needs_scavenge -> assert false
  in
  let ufs =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.trident_t300 in
    Cedar_unixfs.Ufs.mkfs device Cedar_unixfs.Ufs_params.default;
    match Cedar_unixfs.Ufs.mount device with
    | `Ok fs -> run_on "4.3BSD" (Cedar_unixfs.Ufs.ops fs)
    | `Needs_fsck -> assert false
  in
  Printf.printf
    "\nCFS does %.1fx the I/Os of FSD; 4.3BSD does %.1fx (paper's MakeDo row: 1.52x for CFS/FSD)\n"
    (float_of_int cfs.Measure.ios /. float_of_int fsd.Measure.ios)
    (float_of_int ufs.Measure.ios /. float_of_int fsd.Measure.ios);
  Printf.printf
    "Time: FSD finishes the build in %.0f%% of CFS's time.\n"
    (100.0 *. Measure.time_ms fsd /. Measure.time_ms cfs);
  Printf.printf "FSD does the fewest I/Os of the three: %b\n"
    (fsd.Measure.ios < cfs.Measure.ios && fsd.Measure.ios < ufs.Measure.ios)
