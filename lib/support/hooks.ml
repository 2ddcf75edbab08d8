(** Keyed observer registries — see the interface. *)

type 'a t = {
  mu : Mutex.t;
  observers : (string * ('a -> unit)) list Atomic.t;
}

let create () = { mu = Mutex.create (); observers = Atomic.make [] }

(* registration is read-modify-write on an immutable list, so writers
   serialize; readers take whatever list is current *)
let update t f =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () -> Atomic.set t.observers (f (Atomic.get t.observers)))

let add t ~key f = update t (fun l -> (key, f) :: List.remove_assoc key l)
let remove t key = update t (List.remove_assoc key)
let emit t ev = List.iter (fun (_, f) -> f ev) (Atomic.get t.observers)
let active t = match Atomic.get t.observers with [] -> false | _ -> true
