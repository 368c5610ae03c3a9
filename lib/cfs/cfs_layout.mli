(** CFS volume layout and tuning.

    One file-name-table region (not replicated — CFS relies on labels and
    scavenging instead), an on-disk VAM hint area, and a single data pool
    allocated first-fit with a rotating hint (the allocator whose
    fragmentation §5.6 complains about). *)

type params = {
  fnt_page_sectors : int;
  fnt_pages : int;
  cache_pages : int;
  cpu_op_us : int;
  cpu_page_us : int;
}

val default_params : params
val params_for_geometry : Cedar_disk.Geometry.t -> params

type t = {
  geom : Cedar_disk.Geometry.t;
  params : params;
  boot_a : int;
  boot_b : int;
  vam_start : int;
  vam_sectors : int;
  fnt_start : int;
  fnt_sectors : int;
  data_lo : int;
  data_hi : int;  (** [data_lo, fnt_start) and [fnt_end, data_hi) are data *)
}

val compute : Cedar_disk.Geometry.t -> params -> t
val fnt_sector : t -> page:int -> int
val is_data_sector : t -> int -> bool
