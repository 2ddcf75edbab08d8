(** The beam search core — see the interface. *)

let run ~cmp ~width ~levels ~expand ?(on_level = fun _ _ _ -> ()) ~best seeds
    =
  let width = max 1 width in
  let least a b = if cmp b a < 0 then b else a in
  let prune l = List.filteri (fun i _ -> i < width) (List.sort cmp l) in
  let rec go level frontier best =
    match
      if level > levels then [] else List.concat_map (expand level) frontier
    with
    | [] -> (best, level - 1)
    | children ->
        let best = List.fold_left least best children in
        let frontier = prune children in
        on_level level frontier best;
        go (level + 1) frontier best
  in
  go 1 (prune seeds) (List.fold_left least best seeds)

type event =
  | Begin of (string * string) list
  | Level of (string * string) list
  | End of {
      evals : int;
      best_time_s : float;
      best : string * string;
      improved : bool;
      args : (string * string) list;
    }
  | Replay of { args : (string * string) list; ok : bool }

let hooks : (string * event) Hooks.t = Hooks.create ()
let emit search ev = Hooks.emit hooks (search, ev)
let observed () = Hooks.active hooks
