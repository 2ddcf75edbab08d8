(** Host-side glue generation (paper §2, §4.1, Figure 3).

    The Lime compiler emits, besides the kernel, "the C code that handles
    data exchange and the calls to the OpenCL API": device discovery and
    program build, buffer creation, argument binding, transfer and launch
    enqueues, and teardown.  The paper notes a hand-written OpenCL host
    needs "at least a dozen OpenCL procedures" and omits "an additional 182
    lines of code" for setup alone — the [glue] experiment counts the lines
    this generator produces for each benchmark to reproduce that
    observation.

    Like the kernel source, the emitted C cannot be executed in this
    reproduction (no OpenCL driver); it is validated structurally by the
    test suite. *)

module Ir = Lime_ir.Ir

let cname s = String.map (fun c -> if c = '%' || c = '.' then '_' else c) s

let buffer_params (k : Kernel.kernel) =
  List.filter_map
    (fun (p, t) ->
      match t with Ir.TArr aty -> Some (p, aty) | _ -> None)
    k.Kernel.k_params

(** The device discovery / context / program-build prologue — the part the
    paper says costs ~182 lines in a hand-written host. *)
let prologue kname =
  Printf.sprintf
    {|/* ---- OpenCL host glue for %s (generated by the Lime compiler) ---- */
#include <CL/cl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static void check(cl_int st, const char *what) {
  if (st != CL_SUCCESS) {
    fprintf(stderr, "OpenCL error %%d in %%s\n", st, what);
    exit(1);
  }
}

static cl_platform_id pick_platform(void) {
  cl_uint n = 0;
  check(clGetPlatformIDs(0, NULL, &n), "clGetPlatformIDs");
  if (n == 0) { fprintf(stderr, "no OpenCL platform\n"); exit(1); }
  cl_platform_id *ids = malloc(n * sizeof *ids);
  check(clGetPlatformIDs(n, ids, NULL), "clGetPlatformIDs");
  cl_platform_id p = ids[0];
  free(ids);
  return p;
}

static cl_device_id pick_device(cl_platform_id plat) {
  cl_uint n = 0;
  cl_int st = clGetDeviceIDs(plat, CL_DEVICE_TYPE_GPU, 0, NULL, &n);
  cl_device_type ty = CL_DEVICE_TYPE_GPU;
  if (st != CL_SUCCESS || n == 0) { ty = CL_DEVICE_TYPE_CPU; }
  check(clGetDeviceIDs(plat, ty, 1, NULL, &n), "clGetDeviceIDs/count");
  cl_device_id dev;
  check(clGetDeviceIDs(plat, ty, 1, &dev, NULL), "clGetDeviceIDs");
  return dev;
}

static cl_program build_program(cl_context ctx, cl_device_id dev,
                                const char *src) {
  cl_int st;
  cl_program prog = clCreateProgramWithSource(ctx, 1, &src, NULL, &st);
  check(st, "clCreateProgramWithSource");
  st = clBuildProgram(prog, 1, &dev, "", NULL, NULL);
  if (st != CL_SUCCESS) {
    size_t len = 0;
    clGetProgramBuildInfo(prog, dev, CL_PROGRAM_BUILD_LOG, 0, NULL, &len);
    char *log = malloc(len + 1);
    clGetProgramBuildInfo(prog, dev, CL_PROGRAM_BUILD_LOG, len, log, NULL);
    log[len] = 0;
    fprintf(stderr, "build failed:\n%%s\n", log);
    exit(1);
  }
  return prog;
}
|}
    kname

let generate (k : Kernel.kernel) : string =
  let kname = cname k.Kernel.k_name in
  let bufs = buffer_params k in
  let b = Buffer.create 4096 in
  Buffer.add_string b (prologue kname);
  Buffer.add_string b
    (Printf.sprintf
       {|
/* entry point invoked from the JNI bridge: deserialized C-side arrays in,
   result array out (wire format described in the runtime) */
int %s_offload(const void **inputs, const int *input_bytes,
               void *output, int output_bytes,
               const char *kernel_source) {
  cl_int st;
  cl_platform_id plat = pick_platform();
  cl_device_id dev = pick_device(plat);
  cl_context ctx = clCreateContext(NULL, 1, &dev, NULL, NULL, &st);
  check(st, "clCreateContext");
  cl_command_queue queue = clCreateCommandQueue(ctx, dev, 0, &st);
  check(st, "clCreateCommandQueue");
  cl_program prog = build_program(ctx, dev, kernel_source);
  cl_kernel kern = clCreateKernel(prog, "%s", &st);
  check(st, "clCreateKernel");

|}
       kname kname);
  List.iteri
    (fun i (p, (aty : Ir.aty)) ->
      let n = cname p in
      let ro = if aty.Ir.value then "CL_MEM_READ_ONLY" else "CL_MEM_READ_WRITE" in
      Buffer.add_string b
        (Printf.sprintf
           {|  cl_mem buf_%s = clCreateBuffer(ctx, %s | CL_MEM_COPY_HOST_PTR,
                                  input_bytes[%d], (void *)inputs[%d], &st);
  check(st, "clCreateBuffer(%s)");
  check(clSetKernelArg(kern, %d, sizeof(cl_mem), &buf_%s),
        "clSetKernelArg(%s)");
|}
           n ro i i n i n n))
    bufs;
  let scratch = Opencl.scratch_buffers k in
  List.iteri
    (fun i (p, _) ->
      let n = cname p in
      Buffer.add_string b
        (Printf.sprintf
           {|  /* device-only scratch for the kernel intermediate %s */
  cl_mem buf_%s = clCreateBuffer(ctx, CL_MEM_READ_WRITE, output_bytes,
                                 NULL, &st);
  check(st, "clCreateBuffer(%s)");
  check(clSetKernelArg(kern, %d, sizeof(cl_mem), &buf_%s),
        "clSetKernelArg(%s)");
|}
           n n n
           (List.length bufs + i)
           n n))
    scratch;
  let n_bufs = List.length bufs + List.length scratch in
  Buffer.add_string b
    (Printf.sprintf
       {|  cl_mem buf_out = clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, output_bytes,
                                 NULL, &st);
  check(st, "clCreateBuffer(out)");
  check(clSetKernelArg(kern, %d, sizeof(cl_mem), &buf_out),
        "clSetKernelArg(out)");
  /* bookkeeping struct (array lengths) travels by value as the last arg;
     populated by the JNI bridge */
  /* check(clSetKernelArg(kern, %d, sizeof(KArgs), &kargs), ...); */

  size_t global = 0, local = %d;
  /* the generated kernel adapts to any thread count (robust thread loop) */
  global = ((output_bytes / 4 + local - 1) / local) * local;
  check(clEnqueueNDRangeKernel(queue, kern, 1, NULL, &global, &local, 0,
                               NULL, NULL),
        "clEnqueueNDRangeKernel");
  check(clEnqueueReadBuffer(queue, buf_out, CL_TRUE, 0, output_bytes, output,
                            0, NULL, NULL),
        "clEnqueueReadBuffer");
  check(clFinish(queue), "clFinish");

|}
       n_bufs (n_bufs + 1) Kernel.group_size);
  List.iter
    (fun (p, _) ->
      Buffer.add_string b
        (Printf.sprintf "  clReleaseMemObject(buf_%s);\n" (cname p)))
    (bufs @ scratch);
  Buffer.add_string b
    {|  clReleaseMemObject(buf_out);
  clReleaseKernel(kern);
  clReleaseProgram(prog);
  clReleaseCommandQueue(queue);
  clReleaseContext(ctx);
  return 0;
}
|};
  Buffer.contents b

(** Number of distinct OpenCL API procedures the glue uses (the paper: "at
    least a dozen"). *)
let api_calls_used (glue : string) : string list =
  let candidates =
    [
      "clGetPlatformIDs"; "clGetDeviceIDs"; "clCreateContext";
      "clCreateCommandQueue"; "clCreateProgramWithSource"; "clBuildProgram";
      "clGetProgramBuildInfo"; "clCreateKernel"; "clCreateBuffer";
      "clSetKernelArg"; "clEnqueueNDRangeKernel"; "clEnqueueReadBuffer";
      "clFinish"; "clReleaseMemObject"; "clReleaseKernel";
      "clReleaseProgram"; "clReleaseCommandQueue"; "clReleaseContext";
    ]
  in
  List.filter
    (fun c -> Lime_support.Util.contains_substring ~sub:c glue)
    candidates
