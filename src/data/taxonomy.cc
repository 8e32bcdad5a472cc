#include "data/taxonomy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::data {

Taxonomy::Taxonomy() {
  parents_.push_back(0);
  depths_.push_back(0);
  names_.push_back("root");
  children_.emplace_back();
  paths_.push_back({0});
}

CategoryId Taxonomy::AddCategory(const std::string& name, CategoryId parent) {
  SIGCHECK_GE(parent, 0);
  SIGCHECK_LT(parent, num_categories());
  CategoryId id = static_cast<CategoryId>(parents_.size());
  parents_.push_back(parent);
  depths_.push_back(depths_[parent] + 1);
  names_.push_back(name);
  children_.emplace_back();
  children_[parent].push_back(id);
  std::vector<CategoryId> path = {id};
  path.insert(path.end(), paths_[parent].begin(), paths_[parent].end());
  paths_.push_back(std::move(path));
  return id;
}

CategoryId Taxonomy::parent(CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, num_categories());
  return parents_[c];
}

const std::string& Taxonomy::name(CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, num_categories());
  return names_[c];
}

int Taxonomy::depth(CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, num_categories());
  return depths_[c];
}

const std::vector<CategoryId>& Taxonomy::children(CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, num_categories());
  return children_[c];
}

bool Taxonomy::IsLeaf(CategoryId c) const { return children(c).empty(); }

const std::vector<CategoryId>& Taxonomy::PathToRoot(CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, num_categories());
  return paths_[c];
}

CategoryId Taxonomy::Lca(CategoryId a, CategoryId b) const {
  SIGCHECK_GE(a, 0);
  SIGCHECK_LT(a, num_categories());
  SIGCHECK_GE(b, 0);
  SIGCHECK_LT(b, num_categories());
  while (depths_[a] > depths_[b]) a = parents_[a];
  while (depths_[b] > depths_[a]) b = parents_[b];
  while (a != b) {
    a = parents_[a];
    b = parents_[b];
  }
  return a;
}

int Taxonomy::LcaDistance(CategoryId a, CategoryId b) const {
  CategoryId lca = Lca(a, b);
  return depths_[a] - depths_[lca] + 1;
}

std::vector<CategoryId> Taxonomy::CategoriesWithinLca(CategoryId c,
                                                      int k) const {
  std::vector<CategoryId> result;
  std::vector<CategoryId> stack = {LcaRoot(c, k)};
  while (!stack.empty()) {
    CategoryId cur = stack.back();
    stack.pop_back();
    result.push_back(cur);
    for (CategoryId child : children_[cur]) stack.push_back(child);
  }
  std::sort(result.begin(), result.end());
  return result;
}

CategoryId Taxonomy::LcaRoot(CategoryId c, int k) const {
  SIGCHECK_GE(k, 1);
  CategoryId top = c;
  for (int i = 1; i < k && top != 0; ++i) top = parents_[top];
  return top;
}

std::vector<CategoryId> Taxonomy::Leaves() const {
  std::vector<CategoryId> leaves;
  for (CategoryId c = 0; c < num_categories(); ++c) {
    if (children_[c].empty()) leaves.push_back(c);
  }
  return leaves;
}

Taxonomy Taxonomy::Random(int tree_depth, int min_fanout, int max_fanout,
                          Rng* rng) {
  SIGCHECK_GE(tree_depth, 1);
  SIGCHECK_GE(min_fanout, 1);
  SIGCHECK_GE(max_fanout, min_fanout);
  Taxonomy taxonomy;
  std::vector<CategoryId> frontier = {taxonomy.root()};
  for (int level = 0; level < tree_depth; ++level) {
    std::vector<CategoryId> next;
    for (CategoryId parent : frontier) {
      int fanout = static_cast<int>(
          rng->UniformInt(min_fanout, max_fanout));
      for (int i = 0; i < fanout; ++i) {
        next.push_back(taxonomy.AddCategory(
            StrFormat("c%d_%d_%d", level + 1, parent, i), parent));
      }
    }
    frontier = std::move(next);
  }
  return taxonomy;
}

}  // namespace sigmund::data
