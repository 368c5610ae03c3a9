(** Errors shared by every file-system implementation in the repository. *)

type t =
  | No_such_file of string
  | Bad_name of { name : string; reason : string }
  | Volume_full
  | Too_fragmented of string
      (** the file's run table no longer fits its metadata record *)
  | Corrupt_metadata of string
      (** structural damage that requires scavenge/fsck (CFS, BSD) *)
  | Damaged_data of { name : string; sector : int }
  | Bad_page of { name : string; page : int }
  | Not_booted
  | Unsupported_format of string
      (** a volume this build recognises but cannot mount: no scavenge
          can help, and nothing is written to it *)

exception Fs_error of t

val raise_ : t -> 'a
val to_string : t -> string
