(** DDSketch-style streaming quantile sketch — see the interface.

    Bucketing: a value [v > min_value] lands in bucket
    [ceil (log v / log gamma)], so bucket [i] covers
    [(gamma^(i-1), gamma^i]] and its midpoint estimate
    [2 gamma^i / (gamma + 1)] is within [alpha] relative error of every
    value in it (with [gamma = (1+alpha)/(1-alpha)], the edge ratios are
    exactly [1 - alpha] and [1 + alpha]).  Counts live in a hashtable
    keyed by bucket index: memory follows the data's dynamic range, not
    the stream length.

    Thread safety: one mutex per sketch guards every field; the window
    ring adds its own mutex taken {e before} any slot's, so rotation and
    recording never interleave a half-cleared slot. *)

type t = {
  sk_alpha : float;
  sk_gamma : float;
  sk_log_gamma : float;
  sk_buckets : (int, int) Hashtbl.t;
  mutable sk_zero : int;  (** values at or below [min_value] *)
  mutable sk_count : int;
  mutable sk_sum : float;
  mutable sk_min : float;
  mutable sk_max : float;
  sk_mu : Mutex.t;
}

let default_alpha = 0.01
let min_value = 1e-9

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let create ?(alpha = default_alpha) () =
  if not (alpha > 0.0 && alpha < 0.5) then
    invalid_arg "Sketch.create: alpha must be in (0, 0.5)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    sk_alpha = alpha;
    sk_gamma = gamma;
    sk_log_gamma = log gamma;
    sk_buckets = Hashtbl.create 64;
    sk_zero = 0;
    sk_count = 0;
    sk_sum = 0.0;
    sk_min = nan;
    sk_max = nan;
    sk_mu = Mutex.create ();
  }

let alpha t = t.sk_alpha

let key_of t v = int_of_float (Float.ceil (log v /. t.sk_log_gamma))

(* midpoint estimate of bucket [k]: within [alpha] of any value in it *)
let estimate_of t k = 2.0 *. (t.sk_gamma ** float_of_int k) /. (t.sk_gamma +. 1.0)

let add_locked t v =
  if v > min_value then begin
    let k = key_of t v in
    Hashtbl.replace t.sk_buckets k
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.sk_buckets k))
  end
  else t.sk_zero <- t.sk_zero + 1;
  t.sk_count <- t.sk_count + 1;
  t.sk_sum <- t.sk_sum +. v;
  if Float.is_nan t.sk_min || v < t.sk_min then t.sk_min <- v;
  if Float.is_nan t.sk_max || v > t.sk_max then t.sk_max <- v

let add t v =
  if Float.is_nan v then invalid_arg "Sketch.add: nan";
  with_lock t.sk_mu (fun () -> add_locked t v)

let count t = with_lock t.sk_mu (fun () -> t.sk_count)
let sum t = with_lock t.sk_mu (fun () -> t.sk_sum)
let min_seen t = with_lock t.sk_mu (fun () -> t.sk_min)
let max_seen t = with_lock t.sk_mu (fun () -> t.sk_max)

let rank_of q n =
  if n <= 0 then 0
  else max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let quantile t q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Sketch.quantile: q must be in [0, 1]";
  with_lock t.sk_mu (fun () ->
      if t.sk_count = 0 then None
      else begin
        let rank = rank_of q t.sk_count in
        (* a bucket midpoint can lie outside what was observed *)
        let clamp v = Some (Float.min t.sk_max (Float.max t.sk_min v)) in
        if rank <= t.sk_zero then clamp 0.0
        else begin
          (* walk buckets in value order (keys ascend with values) until
             the cumulative count reaches the target rank *)
          let keys =
            Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.sk_buckets []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          let cum = ref t.sk_zero and found = ref None in
          (try
             List.iter
               (fun (k, n) ->
                 cum := !cum + n;
                 if !cum >= rank then begin
                   found := clamp (estimate_of t k);
                   raise Exit
                 end)
               keys
           with Exit -> ());
          !found
        end
      end)

(* Snapshot under the source's lock, then fold into the destination under
   its own — never both at once, so [merge ~into:t t] cannot deadlock
   (it doubles the counts, as merging a copy would). *)
let snapshot t =
  with_lock t.sk_mu (fun () ->
      ( Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.sk_buckets [],
        t.sk_zero,
        t.sk_count,
        t.sk_sum,
        t.sk_min,
        t.sk_max ))

let merge ~into src =
  if into.sk_alpha <> src.sk_alpha then
    invalid_arg "Sketch.merge: sketches have different alpha";
  let buckets, zero, count, sum, mn, mx = snapshot src in
  with_lock into.sk_mu (fun () ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace into.sk_buckets k
            (n + Option.value ~default:0 (Hashtbl.find_opt into.sk_buckets k)))
        buckets;
      into.sk_zero <- into.sk_zero + zero;
      into.sk_count <- into.sk_count + count;
      into.sk_sum <- into.sk_sum +. sum;
      if Float.is_nan into.sk_min || mn < into.sk_min then into.sk_min <- mn;
      if Float.is_nan into.sk_max || mx > into.sk_max then into.sk_max <- mx)

let copy t =
  let out = create ~alpha:t.sk_alpha () in
  merge ~into:out t;
  out

let clear_locked t =
  Hashtbl.reset t.sk_buckets;
  t.sk_zero <- 0;
  t.sk_count <- 0;
  t.sk_sum <- 0.0;
  t.sk_min <- nan;
  t.sk_max <- nan

let clear t = with_lock t.sk_mu (fun () -> clear_locked t)

(* ------------------------------------------------------------------ *)
(* Rolling windows                                                     *)
(* ------------------------------------------------------------------ *)

type window = {
  wd_interval : float;
  wd_clock : unit -> float;
  wd_slots : t array;
  wd_ids : int array;  (** interval id each slot holds; -1 = never used *)
  wd_total : t;
  wd_mu : Mutex.t;
}

let window ?(alpha = default_alpha) ?(interval_s = 60.0) ?(slots = 60) ~clock
    () =
  if interval_s <= 0.0 then
    invalid_arg "Sketch.window: interval_s must be positive";
  if slots < 1 then invalid_arg "Sketch.window: slots must be at least 1";
  {
    wd_interval = interval_s;
    wd_clock = clock;
    wd_slots = Array.init slots (fun _ -> create ~alpha ());
    wd_ids = Array.make slots (-1);
    wd_total = create ~alpha ();
    wd_mu = Mutex.create ();
  }

let window_span_s w = w.wd_interval *. float_of_int (Array.length w.wd_slots)

let interval_id w = int_of_float (Float.floor (w.wd_clock () /. w.wd_interval))

(* The slot owning interval [e], re-zeroed if it still holds a rotated-out
   interval.  Call with [wd_mu] held. *)
let slot_for w e =
  let n = Array.length w.wd_slots in
  let i = ((e mod n) + n) mod n in
  if w.wd_ids.(i) <> e then begin
    with_lock w.wd_slots.(i).sk_mu (fun () -> clear_locked w.wd_slots.(i));
    w.wd_ids.(i) <- e
  end;
  w.wd_slots.(i)

let window_add w v =
  with_lock w.wd_mu (fun () ->
      let slot = slot_for w (interval_id w) in
      add slot v;
      add w.wd_total v)

let window_count w = count w.wd_total
let window_sum w = sum w.wd_total
let window_total w = copy w.wd_total

let window_clear w =
  with_lock w.wd_mu (fun () ->
      Array.iter clear w.wd_slots;
      Array.fill w.wd_ids 0 (Array.length w.wd_ids) (-1);
      clear w.wd_total)

let window_sketch w span_s =
  with_lock w.wd_mu (fun () ->
      let span = Float.min (Float.max span_s w.wd_interval) (window_span_s w) in
      (* the current (partial) interval plus enough full ones to cover the
         span — window edges are quantized to whole intervals *)
      let back = int_of_float (Float.ceil (span /. w.wd_interval)) in
      let e = interval_id w in
      let out = create ~alpha:w.wd_total.sk_alpha () in
      Array.iteri
        (fun i id -> if id >= e - back && id <= e then merge ~into:out w.wd_slots.(i))
        w.wd_ids;
      out)

let window_quantile w span_s q = quantile (window_sketch w span_s) q
