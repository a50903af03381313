type category = Other | Serde_io | Minor_gc | Major_gc

type breakdown = {
  other_ns : float;
  serde_io_ns : float;
  minor_gc_ns : float;
  major_gc_ns : float;
}

(* All-float, so OCaml stores the fields flat and unboxed: a charge
   updates the accumulator in place instead of allocating a fresh boxed
   float, as it would in a record that also holds [tracer]. *)
type acc = {
  mutable other : float;
  mutable serde_io : float;
  mutable minor : float;
  mutable major : float;
}

type t = { acc : acc; mutable tracer : Th_trace.Recorder.t option }

let create () =
  {
    acc = { other = 0.0; serde_io = 0.0; minor = 0.0; major = 0.0 };
    tracer = None;
  }

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let advance t cat ns =
  if ns < 0.0 then invalid_arg "Clock.advance: negative charge";
  let a = t.acc in
  match cat with
  | Other -> a.other <- a.other +. ns
  | Serde_io -> a.serde_io <- a.serde_io +. ns
  | Minor_gc -> a.minor <- a.minor +. ns
  | Major_gc -> a.major <- a.major +. ns

let read t cat =
  let a = t.acc in
  match cat with
  | Other -> a.other
  | Serde_io -> a.serde_io
  | Minor_gc -> a.minor
  | Major_gc -> a.major

let commit t cat v =
  if v < read t cat then invalid_arg "Clock.commit: time would go down";
  let a = t.acc in
  match cat with
  | Other -> a.other <- v
  | Serde_io -> a.serde_io <- v
  | Minor_gc -> a.minor <- v
  | Major_gc -> a.major <- v

let now_ns t =
  let a = t.acc in
  a.other +. a.serde_io +. a.minor +. a.major

let breakdown t =
  let a = t.acc in
  {
    other_ns = a.other;
    serde_io_ns = a.serde_io;
    minor_gc_ns = a.minor;
    major_gc_ns = a.major;
  }

let total_ns b = b.other_ns +. b.serde_io_ns +. b.minor_gc_ns +. b.major_gc_ns

let sub a b =
  {
    other_ns = a.other_ns -. b.other_ns;
    serde_io_ns = a.serde_io_ns -. b.serde_io_ns;
    minor_gc_ns = a.minor_gc_ns -. b.minor_gc_ns;
    major_gc_ns = a.major_gc_ns -. b.major_gc_ns;
  }

let reset t =
  let a = t.acc in
  a.other <- 0.0;
  a.serde_io <- 0.0;
  a.minor <- 0.0;
  a.major <- 0.0

let pp_breakdown f b =
  let s ns = ns /. 1e9 in
  Format.fprintf f
    "other %.3fs | s/d+io %.3fs | minor gc %.3fs | major gc %.3fs | total %.3fs"
    (s b.other_ns) (s b.serde_io_ns) (s b.minor_gc_ns) (s b.major_gc_ns)
    (s (total_ns b))
