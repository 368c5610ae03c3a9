(** The recovery oracle: a version-aware model of the namespace a
    volume must hold after replaying a prefix of a client's mutating
    operations.

    Each name is modelled as a stack of (bytes, fill) versions, newest
    first: a create pushes and truncates to [keep] (mirroring the file
    system's keep enforcement), a delete pops the newest. A volume
    matches a state when every touched name exists iff its stack is
    non-empty, holds exactly as many live versions as the stack is
    deep, and its newest content is byte-equal to the stack top. For
    workloads that never reuse a name this degenerates to the flat
    name → latest-create map the crash sweep originally used. *)

type mut =
  | Mcreate of { name : string; bytes : int; fill : int }
  | Mdelete of string

val muts_of_script : Cedar_workload.Concurrent.script -> mut list

val mut_names : mut list -> string list
(** Every distinct name the mutations touch, sorted. *)

type state = (string, (int * int) list) Hashtbl.t
(** name → (bytes, fill) version stack, newest first; an absent key and
    an empty stack both mean "no live version". *)

val state_after : keep:int -> mut list -> int -> state
(** The model state after the first [i] mutations, keeping at most
    [keep] versions per name ([keep <= 0] keeps all). *)

val actual_file :
  Cedar_fsd.Fsd.t -> name:string -> (bytes option, string) result
(** Newest content of [name], [Ok None] if absent, [Error] if reading
    raised. *)

val diff : Cedar_fsd.Fsd.t -> state -> string list -> string list
(** Every discrepancy between the volume and the state over the given
    names, as human-readable strings; [[]] means the volume matches. *)

val matches_prefix :
  Cedar_fsd.Fsd.t -> keep:int -> mut list -> string list -> int -> bool
(** Does the volume equal the fold of the first [i] mutations? *)

val volume_digest :
  Cedar_fsd.Fsd.t -> (string * int) list * (string * string) list
(** Deterministic digest of every name-table key plus each name's
    newest content. Two boots of one volume must digest equal — the
    convergence check behind "a record already written home must never
    be replayed into stale state". *)
