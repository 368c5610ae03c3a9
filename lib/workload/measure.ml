open Cedar_util
open Cedar_disk
open Cedar_fsbase

type sample = {
  elapsed_us : int;
  ios : int;
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
}

let run (ops : Fs_ops.t) f =
  let before = Iostats.copy (Device.stats ops.Fs_ops.device) in
  let t0 = Simclock.now ops.Fs_ops.clock in
  let r = f () in
  let elapsed_us = Simclock.now ops.Fs_ops.clock - t0 in
  let d = Iostats.diff ~after:(Device.stats ops.Fs_ops.device) ~before in
  ( r,
    {
      elapsed_us;
      ios = d.Iostats.ios;
      reads = d.Iostats.reads;
      writes = d.Iostats.writes;
      sectors_read = d.Iostats.sectors_read;
      sectors_written = d.Iostats.sectors_written;
    } )

let time_ms s = float_of_int s.elapsed_us /. 1000.0

let bandwidth_fraction geom ~bytes_moved ~elapsed_us =
  let bytes_per_us =
    float_of_int geom.Geometry.sector_bytes
    /. float_of_int (Geometry.sector_time_us geom)
  in
  if elapsed_us = 0 then 0.0
  else float_of_int bytes_moved /. (bytes_per_us *. float_of_int elapsed_us)
