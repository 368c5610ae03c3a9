(** Cedar file names with versions ("name!version").

    The name table is keyed so that all versions of a name are contiguous
    and lexicographic key order equals (name, version-number) order; the
    newest version of a name is the greatest key below the name's upper
    bound. *)

val validate : string -> (unit, string) result
(** A valid name is non-empty, at most 100 bytes, and
    contains neither ['!'] nor control characters. *)

val key : name:string -> version:int -> string
(** B-tree key for a specific version. Versions are in [1, 999999]. *)

val bounds : name:string -> string * string
(** [(lo, hi)] such that a key belongs to [name] iff [lo <= key < hi]. *)

val prefix_bound : string -> string option
(** The least string above every string that starts with the given
    prefix — the prefix with its trailing 0xff bytes dropped and its
    last remaining byte incremented — or [None] when no byte remains
    (every key is in range). A key starts with the prefix iff
    [prefix <= key] and it sorts below this bound. *)

val parse : string -> (string * int) option
(** Inverse of {!key}. *)

val shard : shards:int -> string -> int
(** Stable shard for [name] in [0, shards): FNV-1a over the name's
    first path component (up to but excluding the first ['/'], or the
    whole name when there is none — so "proj/a" and "proj/b" land on
    the same shard and keep any future cross-name ops within one
    volume's log). Deterministic across processes and reboots; raises
    [Invalid_argument] when [shards < 1]. [shard ~shards:1] is always
    0. *)

val shard_dir : shards:int -> int -> string
(** A top-level directory name that {!shard}-routes to shard [k]: the
    hash is not invertible, so this probes ["v<k>"], ["v<k>-1"],
    ["v<k>-2"], … and returns the first that lands on [k] —
    deterministic, so workload generators can place names on a chosen
    volume exactly. Raises [Invalid_argument] unless
    [0 <= k < shards]. *)
