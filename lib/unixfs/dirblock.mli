(** Directory data blocks: a packed sequence of (inode number, name)
    entries, zero-terminated. *)

val entries : bytes -> (int * string) list
(** Decodes a block; raises [Bytebuf.Decode_error] on damage. *)

val encode : block_bytes:int -> (int * string) list -> bytes option
(** [None] if the entries do not fit the block. *)
