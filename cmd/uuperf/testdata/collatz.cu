kernel collatz(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  long v = gid + 7;
  long steps = 0;
  for (long i = 0; i < iters; i++) {
    if (v % 2 == 0) {
      v = v / 2;
    } else {
      v = 3 * v + 1;
    }
    if (v == 1) { steps = steps + 1; v = gid + 7; }
  }
  y[gid] = x[gid] + (double)(v + steps);
}
