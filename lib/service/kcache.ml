(** Bounded LRU cache of compiled artifacts, sharded and thread-safe.

    The key space is split across N mutex-guarded stripes (hash of the
    key); each stripe is an independent LRU over its share of the global
    capacity, so concurrent lookups of different keys contend only when
    they land on the same stripe.  Recency is tracked with a global
    monotonically increasing tick per slot (an [Atomic], so recency order
    is meaningful across stripes); eviction scans the full stripe for the
    minimum, which is fine at compile-cache capacities (tens to
    hundreds).

    On a miss the compute [f] runs {e outside} the stripe lock, so a slow
    compile never serializes unrelated lookups.  Two domains missing the
    same key concurrently may both run [f]; the first insert wins and the
    table never exceeds its bound — for a deterministic compiler the
    duplicate work is wasted but harmless. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable coalesced : int;
  mutable contended : int;
}

type 'a slot = { value : 'a; mutable last_use : int }

type 'a stripe = {
  sp_mu : Mutex.t;
  sp_tbl : (string, 'a slot) Hashtbl.t;
  sp_cap : int;
}

type 'a t = {
  cap : int;
  strip : 'a stripe array;
  tick : int Atomic.t;
  st : stats;
  st_mu : Mutex.t;
}

let create ?(capacity = 64) ?(stripes = 1) () =
  let cap = max 1 capacity in
  (* never hand a stripe a zero capacity: clamp the stripe count to cap *)
  let n = max 1 (min stripes cap) in
  let base = cap / n and extra = cap mod n in
  {
    cap;
    strip =
      Array.init n (fun i ->
          {
            sp_mu = Mutex.create ();
            sp_tbl = Hashtbl.create 16;
            sp_cap = base + (if i < extra then 1 else 0);
          });
    tick = Atomic.make 0;
    st = { hits = 0; misses = 0; evictions = 0; coalesced = 0; contended = 0 };
    st_mu = Mutex.create ();
  }

let capacity t = t.cap
let stripes t = Array.length t.strip
let stats t = t.st

let stripe_for t key = t.strip.(Hashtbl.hash key mod Array.length t.strip)

(* Lock a stripe, counting the times we found it already held — the
   cache-contention figure the parallel bench reports. *)
let lock_stripe t (s : 'a stripe) =
  if not (Mutex.try_lock s.sp_mu) then begin
    Mutex.lock t.st_mu;
    t.st.contended <- t.st.contended + 1;
    Mutex.unlock t.st_mu;
    Mutex.lock s.sp_mu
  end

(* Counter bumps take st_mu; it is only ever acquired on its own or inside
   a stripe lock (stripe -> stats is the one lock order), never around
   one. *)
let bump t f =
  Mutex.lock t.st_mu;
  f t.st;
  Mutex.unlock t.st_mu

let length t =
  Array.fold_left
    (fun acc s ->
      lock_stripe t s;
      let n = Hashtbl.length s.sp_tbl in
      Mutex.unlock s.sp_mu;
      acc + n)
    0 t.strip

let mem t key =
  let s = stripe_for t key in
  lock_stripe t s;
  let r = Hashtbl.mem s.sp_tbl key in
  Mutex.unlock s.sp_mu;
  r

let touch t (sl : 'a slot) = sl.last_use <- Atomic.fetch_and_add t.tick 1 + 1

let evict_lru t (s : 'a stripe) =
  let victim =
    Hashtbl.fold
      (fun key sl acc ->
        match acc with
        | Some (_, best) when best <= sl.last_use -> acc
        | _ -> Some (key, sl.last_use))
      s.sp_tbl None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove s.sp_tbl key;
      bump t (fun st -> st.evictions <- st.evictions + 1)

(* Lookups run inside a trace span so cache behaviour shows up on the
   timeline; the result (hit/miss) is attached as the span closes.  On a
   miss the compute [f] nests under the lookup span. *)
let find_or_add t key f =
  Trace.begin_span Trace.default ~cat:"service"
    ~args:[ ("key", key) ]
    "kcache.lookup";
  let result = ref "hit" in
  Fun.protect
    ~finally:(fun () ->
      Trace.end_span Trace.default
        ~args:[ ("result", !result) ]
        "kcache.lookup")
    (fun () ->
      let s = stripe_for t key in
      lock_stripe t s;
      match Hashtbl.find_opt s.sp_tbl key with
      | Some sl ->
          touch t sl;
          Mutex.unlock s.sp_mu;
          bump t (fun st -> st.hits <- st.hits + 1);
          sl.value
      | None ->
          Mutex.unlock s.sp_mu;
          result := "miss";
          bump t (fun st -> st.misses <- st.misses + 1);
          (* compute outside the lock: a slow compile must not serialize
             unrelated lookups on this stripe *)
          let v = f () in
          lock_stripe t s;
          (if not (Hashtbl.mem s.sp_tbl key) then begin
             while Hashtbl.length s.sp_tbl >= s.sp_cap do
               evict_lru t s
             done;
             let sl = { value = v; last_use = 0 } in
             Hashtbl.replace s.sp_tbl key sl;
             touch t sl
           end
           else
             (* a concurrent miss on the same key beat us to the insert;
                keep the resident entry and serve our own (equal) value *)
             touch t (Hashtbl.find s.sp_tbl key));
          Mutex.unlock s.sp_mu;
          v)

let note_coalesced t n =
  if n > 0 then bump t (fun st -> st.coalesced <- st.coalesced + n)

let keys_by_recency t =
  Array.fold_left
    (fun acc s ->
      lock_stripe t s;
      let entries =
        Hashtbl.fold (fun key sl l -> (key, sl.last_use) :: l) s.sp_tbl acc
      in
      Mutex.unlock s.sp_mu;
      entries)
    [] t.strip
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst

let clear t =
  Array.iter
    (fun s ->
      lock_stripe t s;
      Hashtbl.reset s.sp_tbl;
      Mutex.unlock s.sp_mu)
    t.strip
