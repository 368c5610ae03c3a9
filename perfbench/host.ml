(* Host-clock instruments: process CPU time, a monotonic nanosecond
   clock, the harness's own span recorder, and allocation deltas.

   Spans are recorded by the benchmark around each call it makes into a
   layer (name, start, end, parent), kept in memory and printed once at
   the end as a self-time table, so the traced run can say which share of
   a phase its layer spans account for and how much is left over. *)

let now_ns () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* Process CPU seconds, user plus system. The harness and the simulator
   run on one thread, so this is the time the program itself computes;
   unlike wall time it does not count the stretches a shared machine
   spends running other processes. *)
let cpu_s () = Sys.time ()

(* [time f] is [f ()] and the host CPU seconds it took. Every host-clock
   metric of the benchmark is measured with it. *)
let time f =
  let t0 = cpu_s () in
  let r = f () in
  (r, cpu_s () -. t0)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start_ns : int64;
  mutable end_ns : int64;
}

let spans_rev : span list ref = ref []
let open_stack : span list ref = ref []
let next_id = ref 1

let span name f =
  let parent = match !open_stack with s :: _ -> s.id | [] -> 0 in
  let s = { id = !next_id; name; parent; start_ns = now_ns (); end_ns = 0L } in
  incr next_id;
  open_stack := s :: !open_stack;
  Fun.protect
    ~finally:(fun () ->
      s.end_ns <- now_ns ();
      open_stack := List.tl !open_stack;
      spans_rev := s :: !spans_rev)
    f

let span_ms s = ns_between s.start_ns s.end_ns /. 1e6

(* Total and self time (duration minus the time covered by direct
   children) per span name, in first-start order. *)
let span_table () =
  let spans = List.rev !spans_rev in
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ms s.parent
          (span_ms s +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.))
    spans;
  let order = ref [] and rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = span_ms s -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0. in
      match Hashtbl.find_opt rows s.name with
      | Some (n, total, self') -> Hashtbl.replace rows s.name (n + 1, total +. span_ms s, self' +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace rows s.name (1, span_ms s, self))
    (List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) spans);
  List.rev_map (fun name -> let n, total, self = Hashtbl.find rows name in (name, n, total, self)) !order

let print_spans () =
  Printf.printf "# harness spans (host ms): name count total self\n";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "#   %-28s %6d %11.2f %11.2f\n" name n total self)
    (span_table ())

(* Host ns and minor words per call of [f], over [iters] calls. *)
let per_call ~iters f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  let ns = ns_between t0 (now_ns ()) in
  let words = Gc.minor_words () -. w0 in
  (ns /. float_of_int iters, words /. float_of_int iters)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [p]-quantile with linear interpolation between order statistics. *)
let quantile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float k in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (k -. float_of_int i))

(* Nearest-rank percentile, the definition [Cedar_util.Stats] uses. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
