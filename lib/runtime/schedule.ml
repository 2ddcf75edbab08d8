(** Pipelined (double-buffered) firing schedule — the paper's future work.

    §5.3: "the communication costs can be hidden by well-known pipelining
    techniques that overlap communication and computation; these techniques
    lie beyond the scope of this paper."  This module implements them for
    the task pipelines the engine runs.

    With double buffering, firing [i]'s device kernel overlaps firing
    [i+1]'s host-side work (Java marshal + JNI + C marshal) and its PCIe
    upload, and firing [i-1]'s download/return path.  The steady-state
    period of the pipeline is the busiest resource's time instead of the
    sum of the legs:

      serial    total = n * (host + link + kernel)
      pipelined total = fill + (n - 1) * max(host, link, kernel)

    for a single-device pipeline of three resources, where [fill] is one
    serial pass through the stages (a flow shop of identical jobs).  The
    host stage is not overlappable with itself (one JVM marshaling
    thread); PCIe is full-duplex on the paper's hardware only for small
    degrees, so up and down are conservatively serialized on the link.

    {!overlapped_makespan} is the one pipeline clock: the engine reports
    it, the placement search's cost model predicts with it, and the §5.3
    projection prices its three stages with it. *)

type leg = {
  lg_resource : string;
      (** the serialized resource this leg occupies: [host], [link:<dev>]
          or [dev:<dev>] *)
  lg_seconds : float;
}

(** Wall-clock of [firings] identical passes through a placed pipeline,
    with double-buffered overlap across firings.

    Each stage is a list of legs executed in order on named serialized
    resources; legs of one firing chain through the stages, and a resource
    runs one leg at a time.  The simulation advances in software-pipeline
    wavefronts — in round [r], firing [r - s] occupies stage [s] — so
    consecutive firings overlap exactly as the double-buffered engine
    fires them: stage [k+1]'s transfer legs run while stage [k]'s kernel
    leg of the next firing occupies the device.  Within a round, deeper
    stages (older firings) claim their resources first.

    For three single-leg stages on distinct resources this is the flow
    shop's [fill + (n-1) * max]; the generalization is what the
    multi-device scheduler's analytic model predicts, and the engine
    reports this simulated clock so the two can be compared. *)
(* Busy intervals of one serialized resource, sorted by start time.
   [book] places a leg at the earliest gap that both fits it and starts
   no earlier than [ready] — backfilling matters: a leg stalled on its
   firing's chain (waiting for PCIe or a kernel) must not waste its
   resource's idle window, or a pipeline whose host thread is touched at
   both ends of every crossing degrades to nearly serial. *)
type booking = { mutable busy : (float * float) list }

let book (b : booking) ~(ready : float) ~(dur : float) : float =
  if dur <= 0.0 then ready
  else begin
    (* find the earliest feasible start, walking the sorted intervals *)
    let rec place start = function
      | [] -> start
      | (s, e) :: rest ->
          if start +. dur <= s then start else place (Float.max start e) rest
    in
    let start = place ready b.busy in
    let fin = start +. dur in
    (* insert, keeping the list sorted and merging touching neighbours *)
    let rec insert = function
      | [] -> [ (start, fin) ]
      | (s, e) :: rest when e <= start ->
          if e = start then
            (* coalesce with the predecessor *)
            (s, fin) :: rest
          else (s, e) :: insert rest
      | (s, e) :: rest when fin <= s ->
          if fin = s then (start, e) :: rest else (start, fin) :: (s, e) :: rest
      | overlapping :: _ ->
          ignore overlapping;
          assert false (* [place] never yields an overlap *)
    in
    b.busy <- insert b.busy;
    fin
  end

let overlapped_makespan ~(firings : int) (stages : leg list list) : float =
  if firings <= 0 || stages = [] then 0.0
  else
    let legs = Array.of_list (List.map Array.of_list stages) in
    let nstages = Array.length legs in
    let bookings : (string, booking) Hashtbl.t = Hashtbl.create 8 in
    let booking_of r =
      match Hashtbl.find_opt bookings r with
      | Some b -> b
      | None ->
          let b = { busy = [] } in
          Hashtbl.add bookings r b;
          b
    in
    (* finish.(f) = completion time of the stage [f]'s firing most recently
       processed; doubles as the data-ready time for its next stage.
       Firings are released in wavefront order; within a firing the legs
       chain, and each leg books the earliest gap on its resource. *)
    let finish = Array.make firings 0.0 in
    let makespan = ref 0.0 in
    for round = 0 to firings - 1 + nstages - 1 do
      for s = nstages - 1 downto 0 do
        let f = round - s in
        if f >= 0 && f < firings then begin
          let t = ref finish.(f) in
          Array.iter
            (fun leg ->
              let b = booking_of leg.lg_resource in
              t := book b ~ready:!t ~dur:leg.lg_seconds)
            legs.(s);
          finish.(f) <- !t;
          if s = nstages - 1 then makespan := Float.max !makespan !t
        end
      done
    done;
    !makespan
