#include "stream/streamers.hpp"

namespace fblas::stream {

TileWalker::TileWalker(std::int64_t rows, std::int64_t cols,
                       TileSchedule sched)
    : rows_(rows), cols_(cols), s_(sched) {
  FBLAS_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  FBLAS_REQUIRE(s_.tile_rows > 0 && s_.tile_cols > 0,
                "tile sizes must be positive");
  n_trow_ = ceil_div(rows_, s_.tile_rows);
  n_tcol_ = ceil_div(cols_, s_.tile_cols);
  reset();
}

void TileWalker::reset() {
  ti_ = tj_ = ei_ = ej_ = 0;
  done_ = rows_ == 0 || cols_ == 0;
  enter_tile();
}

void TileWalker::enter_tile() {
  row0_ = ti_ * s_.tile_rows;
  col0_ = tj_ * s_.tile_cols;
  h_ = std::min(s_.tile_rows, rows_ - row0_);
  w_ = std::min(s_.tile_cols, cols_ - col0_);
}

void TileWalker::next_tile() {
  if (s_.tile_order == Order::RowMajor) {
    if (++tj_ == n_tcol_) {
      tj_ = 0;
      if (++ti_ == n_trow_) done_ = true;
    }
  } else {
    if (++ti_ == n_trow_) {
      ti_ = 0;
      if (++tj_ == n_tcol_) done_ = true;
    }
  }
  enter_tile();
}

}  // namespace fblas::stream
