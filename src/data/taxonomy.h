#ifndef SIGMUND_DATA_TAXONOMY_H_
#define SIGMUND_DATA_TAXONOMY_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "data/types.h"

namespace sigmund::data {

// A product taxonomy: a rooted tree of categories (Fig. 3 of the paper).
// Category 0 is always the root. Items live in (typically leaf) categories;
// the least-common-ancestor distance between categories drives both the
// hierarchical additive feature model (§III-B4) and candidate selection
// (§III-D1).
//
// Not thread-safe during construction; immutable use is thread-safe.
class Taxonomy {
 public:
  // Creates a taxonomy containing only the root category ("root").
  Taxonomy();

  // Adds a category under `parent` and returns its id. `parent` must exist.
  CategoryId AddCategory(const std::string& name, CategoryId parent);

  int num_categories() const { return static_cast<int>(parents_.size()); }
  CategoryId root() const { return 0; }
  CategoryId parent(CategoryId c) const;
  const std::string& name(CategoryId c) const;
  int depth(CategoryId c) const;  // root has depth 0
  const std::vector<CategoryId>& children(CategoryId c) const;
  bool IsLeaf(CategoryId c) const;

  // Path from `c` to the root, inclusive of both (c first). The
  // hierarchical additive item model sums embeddings along this path, so
  // every category's path is built once, when the category is added.
  const std::vector<CategoryId>& PathToRoot(CategoryId c) const;

  // Least common ancestor of two categories.
  CategoryId Lca(CategoryId a, CategoryId b) const;

  // The paper's LCA distance, from the perspective of an item in category
  // `a`: 1 + (number of edges from `a` up to lca(a, b) minus 1)... concretely
  // depth(a) - depth(lca) + 1, so that two items in the same category are at
  // distance 1, siblings' items at distance 2, etc. (matches Fig. 3:
  // d(Nexus 5X, Nexus 6P) = 1, d(Nexus 5X, iPhone 6) = 2).
  int LcaDistance(CategoryId a, CategoryId b) const;

  // All categories whose items are within LCA distance <= k of category
  // `c` — i.e. the categories in the subtree of LcaRoot(c, k).
  std::vector<CategoryId> CategoriesWithinLca(CategoryId c, int k) const;

  // `c`'s (k-1)-th ancestor, clamped at the root (k >= 1).
  CategoryId LcaRoot(CategoryId c, int k) const;

  // All leaf categories, in id order.
  std::vector<CategoryId> Leaves() const;

  // Generates a random taxonomy: a tree of the given depth where each
  // internal node has [min_fanout, max_fanout] children. Items should be
  // assigned to the returned taxonomy's leaves.
  static Taxonomy Random(int tree_depth, int min_fanout, int max_fanout,
                         Rng* rng);

 private:
  std::vector<CategoryId> parents_;   // parents_[0] == 0 (root loops)
  std::vector<int> depths_;
  std::vector<std::string> names_;
  std::vector<std::vector<CategoryId>> children_;
  std::vector<std::vector<CategoryId>> paths_;  // paths_[c] = PathToRoot(c)
};

}  // namespace sigmund::data

#endif  // SIGMUND_DATA_TAXONOMY_H_
