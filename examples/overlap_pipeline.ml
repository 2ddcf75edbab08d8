(** Overlapping communication with computation (paper §5.3 future work).

    Run with:  dune exec examples/overlap_pipeline.exe -- [firings]

    The paper: "the communication costs can be hidden by well-known
    pipelining techniques that overlap communication and computation; these
    techniques lie beyond the scope of this paper."  This reproduction
    implements them (`Lime_runtime.Schedule`): with double buffering,
    firing i's kernel overlaps firing i+1's marshaling and transfers.
    Each firing is three stages — the host thread, the PCIe link and the
    device — priced on `Schedule.overlapped_makespan`, the same clock
    the engine reports and the multi-device placement search uses.

    This example runs the whole suite on the simulated GTX 580 and reports
    serial vs pipelined vs pipelined+direct-marshal times — the gains
    concentrate exactly where Fig 9 showed high communication shares. *)

module E = Lime_benchmarks.Experiments

let () =
  let firings =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 32
  in
  Printf.printf
    "Streaming execution of %d firings on the simulated GTX 580\n\n" firings;
  let rows = E.overlap ~firings Gpusim.Device.gtx580 in
  print_endline (E.render_overlap ~firings Gpusim.Device.gtx580 rows);
  print_newline ();
  print_endline
    "Reading the table: pipelining pays where the communication share\n\
     (Fig 9) is high — JG-Series and Mosaic approach the 2x bound set by\n\
     their two comparable stages, while compute-bound Parboil-CP/MRIQ are\n\
     already kernel-limited and gain almost nothing.  The direct-to-device\n\
     serializer (which skips the C-side conversion) adds its margin on\n\
     top, 'approximately halving the marshaling overhead' as the paper\n\
     projected.";
  (* decision rule the runtime could apply automatically *)
  print_newline ();
  print_endline "Runtime decision (enable pipelining when projected gain > 10%):";
  List.iter
    (fun (r : E.overlap_row) ->
      Printf.printf "  %-22s %s\n" r.E.ov_bench
        (if r.E.ov_pipelined_speedup >= 1.1 then "pipeline (double-buffer)"
         else "serial (not worth the buffers)"))
    rows
