open Cedar_disk

type t = {
  shard_id : int;
  commit_interval_us : int;
  fnt_page_sectors : int;
  fnt_pages : int;
  log_sectors : int;
  cache_pages : int;
  max_record_data_sectors : int;
  max_runs_per_file : int;
  default_keep : int;
  log_vam : bool;
  blackbox_every_n_forces : int;
  disk_sched : Device.policy;
  disk_qdepth : int;
}

let reserved_sectors = 32

let small_file_bytes = 4_000
let cpu_op_us = 8_000
let cpu_page_us = 150
let scrub_interval_us = 2_000_000
let scrub_pages_per_pass = 4
let scrub_leaders_per_pass = 8
let home_write_fill = 0.5
let home_writes_per_pass = 4
let monitor_interval_us = 100_000

let log_record_sectors n = (2 * n) + 5

let default =
  {
    shard_id = 0;
    commit_interval_us = 500_000;
    fnt_page_sectors = 4;
    fnt_pages = 4096;
    log_sectors = 1203; (* 3 pointer sectors + 3 x 400-sector thirds *)
    cache_pages = 128;
    max_record_data_sectors = 96;
    max_runs_per_file = 40;
    default_keep = 2;
    log_vam = false;
    blackbox_every_n_forces = 1;
    disk_sched = Device.Fifo;
    disk_qdepth = 0; (* no request queue; data I/O services at issue *)
  }

let for_geometry g =
  let total = Geometry.total_sectors g in
  if total >= Geometry.total_sectors Geometry.trident_t300 / 2 then default
  else begin
    (* Scale the metadata regions down for test volumes, keeping the same
       structure: the log must hold three thirds each able to take at
       least one maximal record. *)
    let fnt_page_sectors = 2 in
    let fnt_pages = max 32 (total / 64 / fnt_page_sectors) in
    let max_record_data_sectors = 16 in
    let third = max (log_record_sectors max_record_data_sectors) (total / 48) in
    {
      default with
      fnt_page_sectors;
      fnt_pages;
      log_sectors = (3 * third) + 3;
      cache_pages = 64;
      max_record_data_sectors;
      max_runs_per_file = 16;
    }
  end

let validate g t =
  let total = Geometry.total_sectors g in
  let third = (t.log_sectors - 3) / 3 in
  let max_record = log_record_sectors t.max_record_data_sectors in
  let fnt_sectors = t.fnt_pages * t.fnt_page_sectors in
  let vam_sectors = 1 + ((total + 4095) / 4096) in
  let metadata =
    3 + reserved_sectors + vam_sectors + (2 * fnt_sectors) + t.log_sectors
  in
  if t.shard_id < 0 || t.shard_id > 255 then Error "shard_id outside u8 range"
  else if t.commit_interval_us < 0 then Error "negative commit interval"
  else if t.disk_qdepth < 0 || t.disk_qdepth > 128 then
    Error "disk_qdepth outside [0, 128]"
  else if t.fnt_page_sectors < 1 || t.fnt_page_sectors > 16 then
    Error "fnt_page_sectors out of range"
  else if t.log_sectors < 3 + (3 * max_record) then
    Error
      (Printf.sprintf "log too small: each third (%d) must hold a max record (%d)"
         third max_record)
  else if t.max_record_data_sectors < t.fnt_page_sectors then
    Error "max_record_data_sectors below one FNT page"
  else if metadata * 2 > total then
    Error
      (Printf.sprintf "metadata (%d sectors) exceeds half the volume (%d)" metadata
         total)
  else if t.cache_pages < 8 then Error "cache too small"
  else Ok ()
