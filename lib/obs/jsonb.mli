(** Minimal JSON value builder used by the observability layer.

    The tree is built from plain constructors, rendered with
    {!to_string} and parsed back with {!of_string}; no external
    dependency. Object member
    order is preserved as given, so callers that want deterministic
    output (the table emitters) sort before building. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace beyond single spaces). *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read by humans. *)

val of_string : string -> (t, string) result
(** Parse strict JSON back into the tree. Number literals keep their
    lexical kind — no '.', 'e' or 'E' parses as [Int], anything else as
    [Float] — so a render/parse round trip preserves the distinction
    (the bench-diff comparator treats an Int/Float flip as drift).
    Errors carry a byte offset. *)
