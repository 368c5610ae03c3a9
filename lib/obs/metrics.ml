module Stats = Cedar_util.Stats

type counter = int ref

type instrument =
  | Counter of counter
  | Gauge of (unit -> int)
  | Dist of Stats.t

(* A registry is a shared table plus a name prefix. The root view
   (prefix "") is what single-instance code has always seen; [scoped]
   views share the table but qualify every registration and lookup, so
   two FSD instances booted against sibling views cannot clobber each
   other's instruments while the root still enumerates everything. *)
type t = { tbl : (string, instrument) Hashtbl.t; prefix : string }

let create () = { tbl = Hashtbl.create 64; prefix = "" }
let scoped t prefix = { tbl = t.tbl; prefix = t.prefix ^ prefix }
let full t name = if t.prefix = "" then name else t.prefix ^ name

(* Restrict an enumerated name to this view: [Some local] when it lives
   under our prefix (stripped), [None] otherwise. *)
let local t name =
  let lp = String.length t.prefix in
  if lp = 0 then Some name
  else if String.length name >= lp && String.sub name 0 lp = t.prefix then
    Some (String.sub name lp (String.length name - lp))
  else None

let counter t name =
  let c = ref 0 in
  Hashtbl.replace t.tbl (full t name) (Counter c);
  c

let inc c = incr c
let add c n = c := !c + n
let counter_value c = !c
let gauge t name f = Hashtbl.replace t.tbl (full t name) (Gauge f)

let dist t name =
  let s = Stats.create () in
  Hashtbl.replace t.tbl (full t name) (Dist s);
  s

let register_dist t name s = Hashtbl.replace t.tbl (full t name) (Dist s)

let kinds t =
  Hashtbl.fold
    (fun name ins acc ->
      match local t name with
      | None -> acc
      | Some name ->
        let k =
          match ins with
          | Counter _ -> `Counter
          | Gauge _ -> `Gauge
          | Dist _ -> `Dist
        in
        (name, k) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let read t name =
  match Hashtbl.find_opt t.tbl (full t name) with
  | Some (Counter c) -> Some !c
  | Some (Gauge f) -> Some (f ())
  | Some (Dist _) | None -> None

let read_dist t name =
  match Hashtbl.find_opt t.tbl (full t name) with
  | Some (Dist s) -> Some s
  | Some _ | None -> None

type summary = {
  n : int;
  mean : float;
  min : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize s =
  if Stats.n s = 0 then
    { n = 0; mean = 0.; min = 0.; p50 = 0.; p90 = 0.; p95 = 0.; p99 = 0.; max = 0. }
  else
    {
      n = Stats.n s;
      mean = Stats.mean s;
      min = Stats.min s;
      p50 = Stats.percentile s 0.5;
      p90 = Stats.percentile s 0.9;
      p95 = Stats.percentile s 0.95;
      p99 = Stats.percentile s 0.99;
      max = Stats.max s;
    }

let summary_field d = function
  | "n" -> Jsonb.Int d.n
  | "mean" -> Jsonb.Float d.mean
  | "min" -> Jsonb.Float d.min
  | "p50" -> Jsonb.Float d.p50
  | "p90" -> Jsonb.Float d.p90
  | "p95" -> Jsonb.Float d.p95
  | "p99" -> Jsonb.Float d.p99
  | "max" -> Jsonb.Float d.max
  | f -> invalid_arg ("Metrics.summary_json: unknown field " ^ f)

let summary_json
    ?(fields = [ "n"; "mean"; "min"; "p50"; "p90"; "p95"; "p99"; "max" ]) d =
  Jsonb.Obj (List.map (fun f -> (f, summary_field d f)) fields)

let pp_summary ppf d =
  if d.n = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f"
      d.n d.mean d.min d.p50 d.p90 d.p99 d.max

type snapshot_value = Int of int | Dist of summary

let snapshot t =
  Hashtbl.fold
    (fun name ins acc ->
      match local t name with
      | None -> acc
      | Some name ->
        let v =
          match ins with
          | Counter c -> Int !c
          | Gauge f -> Int (f ())
          | Dist s -> Dist (summarize s)
        in
        (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  Jsonb.Obj
    (List.map
       (fun (name, v) ->
         (name, match v with Int i -> Jsonb.Int i | Dist d -> summary_json d))
       (snapshot t))

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | Int i -> Format.fprintf ppf "%-32s %d@." name i
      | Dist d -> Format.fprintf ppf "%-32s %a@." name pp_summary d)
    (snapshot t)
