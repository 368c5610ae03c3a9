type t = {
  mutable modified : bool; (* changed since last logged *)
  mutable logged : (int * bytes) option; (* (third, committed image) *)
}

let create () = { modified = true; logged = None }
let modified t = t.modified
let modify t = t.modified <- true

let logged t ~third image =
  t.modified <- false;
  t.logged <- Some (third, image)

let claims t third = match t.logged with Some (j, _) -> j = third | None -> false

let home t ~current =
  match t.logged with
  | Some (_, committed) ->
    t.logged <- None;
    (committed, t.modified)
  | None -> (current, false)
