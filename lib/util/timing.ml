external now_mono : unit -> float = "uxsm_timing_monotonic_now"
