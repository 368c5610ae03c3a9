(** The replicated boot page (sectors 0 and 2; §5.8: "two kinds of pages
    needed in booting could become bad: they are now replicated").

    Records the boot count and five fields of the volume's {!Params.t}:
    the layout ([fnt_page_sectors], [fnt_pages], [log_sectors]) and the
    shard ([shard_id]), fixed at format time, and the extension flag
    [log_vam] as of the last format, clean shutdown or scavenge. Whether
    the last shutdown was controlled is the VAM save area's own flag,
    not the page's. This module is the one place those fields move
    between a page and a {!Params.t}: format, boot, shutdown, the
    scavenger and the CLI all go through it.

    The byte after [log_vam] is always written as zero. It once flagged
    the retired track-tolerant log, a second record layout; a page that
    sets it is refused by {!read}. *)

type t = private {
  boot_count : int;
  params : Params.t;
      (** {!Params.for_geometry} of the device's geometry with the five
          stamped fields taken from the page *)
}

val write : Cedar_disk.Device.t -> boot_count:int -> Params.t -> unit
(** Stamp the five fields of the given params. One three-sector command:
    page, blank, replica. *)

val read : Cedar_disk.Device.t -> t option
(** Tries sector 0 then sector 2; [None] if both are bad. Raises
    [Fs_error (Unsupported_format _)], naming the retired track-tolerant
    log, when the first good copy has that format's flag set: boot, the
    scavenger and the CLI read the page first, so such a volume is
    refused before any sector is written. *)

val adopt : t -> Params.t -> Params.t
(** The given runtime params with the page's four layout and identity
    fields ([fnt_page_sectors], [fnt_pages], [log_sectors],
    [shard_id]): a boot given explicit params still runs the layout and
    the shard the volume was formatted with. *)
