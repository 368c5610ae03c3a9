open Cedar_disk
open Cedar_fsbase

type t = {
  geom : Geometry.t;
  params : Params.t;
  boot_a : int;
  boot_b : int;
  reserved_start : int;
  reserved_sectors : int;
  vam_start : int;
  vam_sectors : int;
  fnt_a_start : int;
  fnt_b_start : int;
  fnt_sectors : int;
  log_start : int;
  log_sectors : int;
  small_lo : int;
  small_hi : int;
  big_lo : int;
  big_hi : int;
}

let compute geom params =
  (match Params.validate geom params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Layout.compute: " ^ m));
  let total = Geometry.total_sectors geom in
  let reserved_start = 3 in
  let vam_start = reserved_start + Params.reserved_sectors in
  let vam_sectors = 1 + ((total + 4095) / 4096) in
  let small_lo = vam_start + vam_sectors in
  let fnt_sectors = params.Params.fnt_pages * params.Params.fnt_page_sectors in
  let block = (2 * fnt_sectors) + params.Params.log_sectors in
  let block_start = max ((total / 2) - (block / 2)) (small_lo + 1) in
  let fnt_a_start = block_start in
  let log_start = fnt_a_start + fnt_sectors in
  let fnt_b_start = log_start + params.Params.log_sectors in
  let block_end = fnt_b_start + fnt_sectors in
  if block_end >= total then invalid_arg "Layout.compute: volume too small";
  {
    geom;
    params;
    boot_a = 0;
    boot_b = 2;
    reserved_start;
    reserved_sectors = Params.reserved_sectors;
    vam_start;
    vam_sectors;
    fnt_a_start;
    fnt_b_start;
    fnt_sectors;
    log_start;
    log_sectors = params.Params.log_sectors;
    small_lo;
    small_hi = block_start;
    big_lo = block_end;
    big_hi = total;
  }

let fnt_sector_a t ~page =
  if page < 0 || page >= t.params.Params.fnt_pages then
    invalid_arg "Layout.fnt_sector_a";
  t.fnt_a_start + (page * t.params.Params.fnt_page_sectors)

let fnt_sector_b t ~page =
  if page < 0 || page >= t.params.Params.fnt_pages then
    invalid_arg "Layout.fnt_sector_b";
  t.fnt_b_start + (page * t.params.Params.fnt_page_sectors)

let is_data_sector t s =
  (s >= t.small_lo && s < t.small_hi) || (s >= t.big_lo && s < t.big_hi)

(* A run lies in one area: the metadata between them is never a file's. *)
let rec runs_in_data_areas t = function
  | [] -> true
  | { Run_table.start; len } :: rest ->
    ((start >= t.small_lo && start + len <= t.small_hi)
    || (start >= t.big_lo && start + len <= t.big_hi))
    && runs_in_data_areas t rest

let in_data_areas t (e : Entry.t) =
  is_data_sector t e.anchor && runs_in_data_areas t (Run_table.runs e.runs)

let describes_a_file t (e : Entry.t) =
  Run_table.holds e.runs ~sector_bytes:t.geom.Geometry.sector_bytes ~byte_size:e.byte_size
  && in_data_areas t e

let data_sectors t = t.small_hi - t.small_lo + (t.big_hi - t.big_lo)

let pp ppf t =
  Format.fprintf ppf
    "boot %d/%d reserved [%d,%d) vam [%d,%d) small [%d,%d) fntA [%d,%d) log [%d,%d) fntB [%d,%d) big [%d,%d)"
    t.boot_a t.boot_b t.reserved_start
    (t.reserved_start + t.reserved_sectors)
    t.vam_start
    (t.vam_start + t.vam_sectors)
    t.small_lo t.small_hi t.fnt_a_start
    (t.fnt_a_start + t.fnt_sectors)
    t.log_start
    (t.log_start + t.log_sectors)
    t.fnt_b_start
    (t.fnt_b_start + t.fnt_sectors)
    t.big_lo t.big_hi
