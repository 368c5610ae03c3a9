(** The FSD scavenger of last resort.

    Log replay ({!Fsd.boot}) handles crashes; the doubly-written FNT and
    the per-page checksums handle single-copy damage. What neither
    handles is losing {e both} copies of a name-table page — the case the
    leader pages exist for (§5.1: the leader and the name table are "a
    mutually checking data structure … to make scavenging possible").

    The scavenger rebuilds the volume's metadata from whatever survives:

    + replay the log (committed FNT and leader images go home);
    + salvage every entry still reachable in the surviving FNT pages;
    + scan the data areas for leader pages (each leader mirrors its
      file's complete entry under a checksum) and rebuild the entries
      whose FNT pages were lost;
    + resolve conflicts — two claims on one key or one sector lose to
      the {e newer} uid; the loser's sectors are quarantined (kept
      allocated, referenced by nothing) rather than handed out again.
      An entry, salvaged or rebuilt from a leader, that cannot describe
      a file ({!Layout.describes_a_file}) is refused the same way;
    + drop stale leaders of deleted files when the surviving name table
      is complete enough to prove the deletion;
    + rewrite the leader of every salvaged entry whose leader did not
      corroborate it (damaged, torn or stale), as the scrubber would;
    + write a fresh FNT, VAM, empty log, and clean boot page.

    After {!run} the volume boots cleanly with nothing to replay. Files
    whose leader {e and} FNT entry are both lost keep their data sectors
    on disk but are unreachable (counted neither recovered nor
    quarantined — nothing on the volume names them). *)

type report = {
  entries_kept : int;  (** salvaged from surviving FNT pages *)
  entries_rebuilt : int;  (** reconstructed from leader pages *)
  leaders_rewritten : int;
      (** leaders of salvaged entries rewritten from the entry *)
  stale_leaders : int;  (** leaders of provably deleted files, dropped *)
  conflicts : int;
      (** key/sector claims that lost to a newer uid, and entries or
          leaders that cannot describe a file *)
  quarantined_sectors : int;
      (** sectors of conflicting claims: left allocated, owned by nothing *)
  fnt_pages_lost : int;  (** page pairs with both copies bad *)
  replayed_records : int;  (** committed log records applied first *)
  duration_us : int;
}

val run : Cedar_disk.Device.t -> report
(** Rebuild the volume's metadata in place. Always succeeds in producing
    a bootable volume (an empty one, in the worst case); never raises on
    damage. Raises [Fs_error (Unsupported_format _)] before writing
    anything when the boot page names a format this build cannot read
    ({!Boot_page.read}). Call {!Fsd.boot} afterwards. *)

val pp_report : Format.formatter -> report -> unit
