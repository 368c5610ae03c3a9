(* Serialization and terminal rendering for monitor samples.

   The JSON emitter is a pure function of the sample list, so it
   inherits the monitor's determinism contract: identical runs give
   byte-identical output. The frame renderer writes plain text only —
   no ANSI escape sequences — so `--watch` piped to a file (or run
   without a tty) stays grep-clean; any cursor addressing is the
   caller's business. *)

module J = Jsonb

(* Each watched window's fields in the JSON. *)
let window_fields = [ "n"; "p50"; "p90"; "p99" ]

let sample_json (s : Monitor.sample) =
  J.Obj
    [
      ("at_us", J.Int s.Monitor.at_us);
      ("dt_us", J.Int s.Monitor.dt_us);
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.Monitor.counters) );
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.Monitor.gauges));
      ( "derived",
        J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.Monitor.derived) );
      ( "dists",
        J.Obj
          (List.map
             (fun (k, w) -> (k, Metrics.summary_json ~fields:window_fields w))
             s.Monitor.dists) );
    ]

let to_json samples = J.Arr (List.map sample_json samples)

(* Sparklines: eight UTF-8 block glyphs, scaled to the series' own
   range so a flat line renders as a flat line. Plain text, no escape
   codes. *)

let spark_glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline ?(width = 48) values =
  let values =
    let n = List.length values in
    if n <= width then values
    else
      (* keep the newest [width] points *)
      List.filteri (fun i _ -> i >= n - width) values
  in
  match values with
  | [] -> ""
  | vs ->
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    let range = hi -. lo in
    let b = Buffer.create (3 * List.length vs) in
    List.iter
      (fun v ->
        let i =
          if range <= 0.0 then 0
          else
            min 7 (int_of_float (Float.of_int 8 *. (v -. lo) /. range))
        in
        Buffer.add_string b spark_glyphs.(i))
      vs;
    Buffer.contents b

(* One dashboard frame: header, nonzero counter deltas, gauges, derived
   saturation gauges, watched dist percentiles, then a sparkline per
   requested derived series over the supplied history. *)

let render_frame ?(spark = []) ~history (s : Monitor.sample) =
  let b = Buffer.create 1024 in
  let secs = float_of_int s.Monitor.at_us /. 1e6 in
  let dt_ms = float_of_int s.Monitor.dt_us /. 1e3 in
  Buffer.add_string b
    (Printf.sprintf "t=%9.3fs  dt=%7.1fms  samples=%d\n" secs dt_ms
       (List.length history));
  let nonzero = List.filter (fun (_, v) -> v <> 0) s.Monitor.counters in
  if nonzero <> [] then begin
    Buffer.add_string b "  deltas ";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" k v))
      nonzero;
    Buffer.add_char b '\n'
  end;
  if s.Monitor.gauges <> [] then begin
    Buffer.add_string b "  gauges ";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" k v))
      s.Monitor.gauges;
    Buffer.add_char b '\n'
  end;
  if s.Monitor.derived <> [] then begin
    Buffer.add_string b "  sat    ";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%.3f" k v))
      s.Monitor.derived;
    Buffer.add_char b '\n'
  end;
  List.iter
    (fun (k, w) ->
      Buffer.add_string b (Format.asprintf "  %-28s %a\n" k Metrics.pp_summary w))
    s.Monitor.dists;
  List.iter
    (fun name ->
      let series =
        List.filter_map
          (fun (h : Monitor.sample) -> List.assoc_opt name h.Monitor.derived)
          history
      in
      if series <> [] then
        Buffer.add_string b
          (Printf.sprintf "  %-28s %s\n" name (sparkline series)))
    spark;
  Buffer.contents b
