open Cedar_disk

type params = {
  fnt_page_sectors : int;
  fnt_pages : int;
  cache_pages : int;
  cpu_op_us : int;
  cpu_page_us : int;
}

let default_params =
  {
    fnt_page_sectors = 4;
    fnt_pages = 4096;
    cache_pages = 128;
    cpu_op_us = 8_000;
    cpu_page_us = 150;
  }

let params_for_geometry g =
  let total = Geometry.total_sectors g in
  if total >= Geometry.total_sectors Geometry.trident_t300 / 2 then default_params
  else
    {
      default_params with
      fnt_page_sectors = 2;
      fnt_pages = max 32 (total / 64 / 2);
      cache_pages = 64;
    }

type t = {
  geom : Geometry.t;
  params : params;
  boot_a : int;
  boot_b : int;
  vam_start : int;
  vam_sectors : int;
  fnt_start : int;
  fnt_sectors : int;
  data_lo : int;
  data_hi : int;
}

let compute geom params =
  let total = Geometry.total_sectors geom in
  let vam_sectors = 1 + ((total + 4095) / 4096) in
  let fnt_sectors = params.fnt_pages * params.fnt_page_sectors in
  let fnt_start = max ((total / 2) - (fnt_sectors / 2)) (3 + vam_sectors + 1) in
  if fnt_start + fnt_sectors >= total then
    invalid_arg "Cfs_layout.compute: volume too small";
  {
    geom;
    params;
    boot_a = 0;
    boot_b = 2;
    vam_start = 3;
    vam_sectors;
    fnt_start;
    fnt_sectors;
    data_lo = 3 + vam_sectors;
    data_hi = total;
  }

let fnt_sector t ~page =
  if page < 0 || page >= t.params.fnt_pages then invalid_arg "Cfs_layout.fnt_sector";
  t.fnt_start + (page * t.params.fnt_page_sectors)

let is_data_sector t s =
  s >= t.data_lo && s < t.data_hi
  && not (s >= t.fnt_start && s < t.fnt_start + t.fnt_sectors)
