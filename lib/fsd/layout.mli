(** FSD volume layout.

    The log and both name-table copies are preallocated at the central
    cylinders to minimise head motion (§5.1, §5.3); the two name-table
    copies sit on opposite sides of the log so that page [i] of copy A and
    copy B are far apart (independent failure modes). Data is split into a
    small-file area (low addresses, growing up) and a big-file area (high
    addresses, growing down) to curtail fragmentation (§5.6).

    A reserved region of {!Params.reserved_sectors} sits right after the
    boot pages. Format zeroes it and nothing else touches it; it stays
    so that every later region keeps its address and volumes formatted
    while the region was in use still boot (DESIGN.md §11).

{v
  | boot A | blank | boot B | reserved | VAM save |   small-file area ...
      ... | FNT copy A | log | FNT copy B |   ... big-file area |
v} *)

type t = {
  geom : Cedar_disk.Geometry.t;
  params : Params.t;
  boot_a : int;
  boot_b : int;
  reserved_start : int;
  reserved_sectors : int;  (** [reserved_start, reserved_start + reserved_sectors) *)
  vam_start : int;
  vam_sectors : int;
  fnt_a_start : int;
  fnt_b_start : int;
  fnt_sectors : int;  (** per copy *)
  log_start : int;
  log_sectors : int;
  small_lo : int;
  small_hi : int;  (** small-file area, [small_lo, small_hi) *)
  big_lo : int;
  big_hi : int;  (** big-file area, [big_lo, big_hi) *)
}

val compute : Cedar_disk.Geometry.t -> Params.t -> t
(** Raises [Invalid_argument] when {!Params.validate} fails. *)

val fnt_sector_a : t -> page:int -> int
val fnt_sector_b : t -> page:int -> int

val is_data_sector : t -> int -> bool
(** Whether a sector belongs to one of the two data areas. *)

val data_sectors : t -> int
val pp : Format.formatter -> t -> unit
