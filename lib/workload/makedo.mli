(** A MakeDo-like build workload (Table 3's "typical of clients that
    intensively use the file system").

    For each module of a synthetic program the build: reads the source,
    reads a couple of interface files it depends on, writes a derived
    object file (a new version), writes and then deletes a compiler temp
    file, and finally rewrites the build description file. All through
    the generic {!Cedar_fsbase.Fs_ops} interface, so it runs unchanged on
    CFS, FSD, and the BSD baseline. *)

type spec = {
  modules : int;
  deps_per_module : int;
  source_bytes : int;  (** mean; actual sizes vary around it *)
  seed : int;
}

val default : spec

val prepare : Cedar_fsbase.Fs_ops.t -> spec -> unit
(** Create the source tree (not part of the measured build). *)

val build : Cedar_fsbase.Fs_ops.t -> spec -> Measure.sample
(** Run the build and measure it. *)

(** {1 Name scheme (for checking build outputs)} *)

val source_name : int -> string
val object_name : int -> string
val df_name : string
