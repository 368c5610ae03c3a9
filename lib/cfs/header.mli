(** CFS file headers (Table 1): two labelled sectors per file holding the
    run table, byte size, keep, create time, version, and text name —
    the information FSD later moved into the name table. The header
    serves the role UNIX inodes do, with a different implementation.
    Its record is a {!Cedar_fsbase.File_record}; a cached copy of a
    remote file keeps its last-used time here, so every update costs a
    header rewrite. *)

val sectors : int
(** Always 2: "header page 0" and "header page 1". *)

val format : Cedar_fsbase.File_record.format
(** Two sectors, magic "CHD1", the run table before the kind. *)

val labels : int64 -> Cedar_disk.Label.t list
(** The two header labels of the file with this uid, for verified I/O. *)
