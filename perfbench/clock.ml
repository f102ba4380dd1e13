(* Monotonic host clock in integer nanoseconds.  [Monotonic_clock.now]
   is a [@@noalloc] external returning an unboxed int64, so a reading
   allocates nothing and the span recorder never perturbs the GC
   counters it sits next to. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9
