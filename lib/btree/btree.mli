(** Page-based B-tree with variable-length string keys and values.

    Both file name tables are instances of this functor: CFS runs it over a
    store that writes pages straight to disk (so a crash between the page
    writes of a split corrupts the tree — the flaw §5.3 calls out), while
    FSD runs it over the logged, double-written page cache (so every
    multi-page update is atomic).

    Keys are ordered by [String.compare]. Entries must be small relative
    to the page: an entry whose encoded size exceeds a quarter of the page
    is rejected with [Invalid_argument] so that splits always succeed.

    Each tree keeps a direct-mapped memo of 128 decoded nodes, keyed by
    page id. Every node access still calls [S.read]; the memo only saves
    the decode, and only when [read] hands back the very bytes value
    ([==]) the slot's node was decoded from or encoded to. *)

module type STORE = sig
  type t
  (** Bytes cross this interface by ownership transfer, never by copy
      obligation: once [write] has been given a bytes value, or [read] has
      returned one, neither side mutates it. A page that changes gets a
      new bytes value. A store may copy on either side (the tree then just
      decodes more often), but it must not hand out the same bytes value
      for different contents. *)

  val page_bytes : t -> int

  val read : t -> int -> bytes
  (** [read t id] returns the page's current contents: the bytes last
      written to [id] (or an equal copy of them), never a value the store
      will later mutate. *)

  val write : t -> int -> bytes -> unit
  (** [write t id b] makes [b] the page's contents; the store may keep [b]
      itself and return it from later [read]s. *)

  val alloc : t -> int
  (** A fresh page id, distinct from all live pages. *)

  val free : t -> int -> unit

  val get_root : t -> int option
  (** The root page id, or [None] for an empty tree. *)

  val set_root : t -> int option -> unit
end

type stats = { depth : int; pages : int; entries : int; used_bytes : int }

exception Corrupt of string
(** Raised when a page fails to decode — e.g. after a torn CFS write. *)

module Make (S : STORE) : sig
  type t

  val attach : S.t -> t
  (** Attach to a store; the tree may be empty (no root) or existing. *)

  val insert : t -> key:string -> value:string -> unit
  (** Inserts or replaces. *)

  val find : t -> string -> string option

  val delete : t -> string -> bool
  (** [true] if the key was present. *)

  val iter_range : ?lo:string -> ?hi:string -> t -> (string -> string -> unit) -> unit
  (** In-order over keys with [lo <= key < hi] (each bound optional). *)

  val fold_range :
    ?lo:string -> ?hi:string -> t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a

  val iter : t -> (string -> string -> unit) -> unit

  val min_key : t -> string option
  val max_key : t -> string option

  val find_last_below : t -> string -> (string * string) option
  (** Greatest binding with key strictly less than the argument — used to
      find the newest version of a file name. *)

  val is_empty : t -> bool
  val stats : t -> stats

  val check : t -> (unit, string) result
  (** Full structural validation: sorted keys, separator bounds, uniform
      leaf depth, page-size respect. *)
end
